// Pooled execution path of the DetectionService: core-budget auto-sizing,
// persistent rank-pool reuse (bit-identical to fresh-spawn across a mixed
// workload, both kernels), cost-aware shard dispatch with stealing, and
// worker self-healing on the pooled path. Runs under the TSan and ASan
// ctest labels.
#include <gtest/gtest.h>

#include <condition_variable>
#include <cstdint>
#include <future>
#include <mutex>
#include <string>
#include <vector>

#include "core/detect_par.hpp"
#include "core/tree_template.hpp"
#include "gf/gf256.hpp"
#include "gf/gfsmall.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "partition/multilevel.hpp"
#include "service/query.hpp"
#include "service/service.hpp"
#include "util/rng.hpp"

namespace {

using namespace midas;
using service::DetectionService;
using service::Lane;
using service::QueryResult;
using service::QuerySpec;
using service::QueryType;
using service::ServiceOptions;

TEST(CoreBudget, AutoDerivesWorkersFromCores) {
  // cores / ranks_hint workers, each pool sized to the hint.
  const auto b = service::resolve_core_budget(0, 8, 2);
  EXPECT_EQ(b.cores, 8);
  EXPECT_EQ(b.workers, 4);
  EXPECT_EQ(b.ranks_per_worker, 2);
}

TEST(CoreBudget, SingleCoreNeverOversubscribes) {
  const auto b = service::resolve_core_budget(0, 1, 2);
  EXPECT_EQ(b.workers, 1);
  EXPECT_EQ(b.ranks_per_worker, 2);  // never below the rank hint
}

TEST(CoreBudget, ExplicitWorkersPinTheCountAndSplitCores) {
  const auto b = service::resolve_core_budget(2, 8, 2);
  EXPECT_EQ(b.workers, 2);
  EXPECT_EQ(b.ranks_per_worker, 4);  // 8 cores / 2 workers
}

TEST(CoreBudget, AutoWorkersAreCapped) {
  const auto b = service::resolve_core_budget(0, 128, 1);
  EXPECT_EQ(b.workers, 16);
  EXPECT_EQ(b.ranks_per_worker, 8);
}

TEST(CoreBudget, ZeroCoresReadsHardware) {
  const auto b = service::resolve_core_budget(0, 0, 2);
  EXPECT_GE(b.cores, 1);
  EXPECT_GE(b.workers, 1);
  EXPECT_GE(b.ranks_per_worker, 2);
}

TEST(CoreBudget, ServiceExposesResolvedBudgetInStats) {
  DetectionService svc({.workers = 0, .cores = 8, .ranks_hint = 2});
  const auto s = svc.stats();
  EXPECT_EQ(s.workers, 4);
  EXPECT_EQ(s.cores, 8);
  EXPECT_EQ(s.ranks_per_worker, 2);
  EXPECT_EQ(s.workers_alive, 4u);
  EXPECT_EQ(s.shard_load.size(), 4u);
  EXPECT_EQ(s.shard_queued.size(), 4u);
}

TEST(CoreBudget, NegativeWorkersRejected) {
  EXPECT_THROW(DetectionService({.workers = -1}), std::invalid_argument);
  EXPECT_THROW(DetectionService({.cores = -1}), std::invalid_argument);
  EXPECT_THROW(DetectionService({.ranks_hint = 0}), std::invalid_argument);
}

TEST(QueryCost, EstimateOrdersWorkSanely) {
  QuerySpec q;
  q.k = 4;
  const double base = service::estimate_query_cost(q, 1000, 4000);
  QuerySpec deeper = q;
  deeper.k = 6;
  EXPECT_GT(service::estimate_query_cost(deeper, 1000, 4000), base);
  EXPECT_GT(service::estimate_query_cost(q, 10'000, 40'000), base);
  QuerySpec more_rounds = q;
  more_rounds.max_rounds = 50;
  EXPECT_GT(service::estimate_query_cost(more_rounds, 1000, 4000), base);
  EXPECT_GT(base, 0.0);
}

// ---------------------------------------------------------------------------
// Pooled vs fresh-spawn bit-identity across a mixed workload.

std::string graph_name(int i) { return "p" + std::to_string(i); }

graph::Graph make_graph(int i) {
  Xoshiro256 rng(500u + static_cast<std::uint64_t>(i));
  return i % 2 == 0 ? graph::erdos_renyi_gnm(80, 320, rng)
                    : graph::barabasi_albert(60, 3, rng);
}

QuerySpec draw_query(Xoshiro256& rng, int qi) {
  QuerySpec q;
  const std::uint64_t t = rng.below(3);
  q.type = t == 0 ? QueryType::kTree
                  : (t == 1 ? QueryType::kScan : QueryType::kPath);
  q.graph = graph_name(static_cast<int>(rng.below(2)));
  q.lane = rng.below(2) == 0 ? Lane::kInteractive : Lane::kBatch;
  q.k = 3 + static_cast<int>(rng.below(2));
  q.field_bits = rng.below(2) == 0 ? 8 : 4;
  q.seed = 40'000u + static_cast<std::uint64_t>(qi);
  q.max_rounds = 1;
  q.kernel = rng.below(2) == 0 ? core::Kernel::kScalar
                               : core::Kernel::kBitsliced;
  q.n1 = 2;
  q.n_ranks = rng.below(2) == 0 ? 2 : 4;
  q.n2 = 8;
  if (q.type == QueryType::kTree)
    for (std::uint32_t i = 1; i < static_cast<std::uint32_t>(q.k); ++i)
      q.tree_edges.emplace_back(static_cast<std::uint32_t>(rng.below(i)), i);
  return q;
}

core::MidasOptions engine_options(const QuerySpec& q) {
  core::MidasOptions opt;
  opt.k = q.k;
  opt.epsilon = q.epsilon;
  opt.seed = q.seed;
  opt.n_ranks = q.n_ranks;
  opt.n1 = q.n1;
  opt.n2 = q.n2;
  opt.max_rounds = q.max_rounds;
  opt.early_exit = q.early_exit;
  opt.kernel = q.kernel;
  return opt;
}

/// Fresh single-query run on the spawn/join path (opt.spmd.pool stays
/// null): the bit-exactness reference for the pooled service.
QueryResult reference_run(const graph::Graph& g, const QuerySpec& q) {
  const auto part = partition::multilevel_partition(g, q.n1);
  const auto opt = engine_options(q);
  QueryResult out;
  auto run = [&](const auto& f) {
    switch (q.type) {
      case QueryType::kPath: {
        const auto r = core::midas_kpath(g, part, opt, f);
        out.found = r.found;
        out.rounds_run = r.rounds_run;
        out.found_round = r.found_round;
        out.vtime = r.vtime;
        break;
      }
      case QueryType::kTree: {
        graph::GraphBuilder tb(static_cast<graph::VertexId>(q.k));
        for (const auto& [a, b] : q.tree_edges) tb.add_edge(a, b);
        const graph::Graph tmpl = tb.build();
        const core::TreeDecomposition td(tmpl, q.tree_root);
        const auto r = core::midas_ktree(g, part, td, opt, f);
        out.found = r.found;
        out.rounds_run = r.rounds_run;
        out.found_round = r.found_round;
        out.vtime = r.vtime;
        break;
      }
      case QueryType::kScan: {
        const auto r = core::midas_scan(g, part, q.weights, opt, f);
        out.table = r.table;
        out.rounds_run = q.rounds();
        out.vtime = r.vtime;
        break;
      }
      case QueryType::kMotif: {
        const auto r = core::midas_motif(g, part, q.colors, q.motif, opt, f);
        out.found = r.found;
        out.rounds_run = r.rounds_run;
        out.found_round = r.found_round;
        out.vtime = r.vtime;
        break;
      }
    }
  };
  if (q.field_bits == 8)
    run(gf::GF256{});
  else
    run(gf::GFSmall(q.field_bits));
  return out;
}

std::vector<std::uint32_t> draw_weights(std::uint32_t n,
                                        std::uint64_t seed) {
  Xoshiro256 rng(seed * 17 + 3);
  std::vector<std::uint32_t> w(n);
  for (auto& x : w) x = static_cast<std::uint32_t>(rng.below(4));
  return w;
}

TEST(ServicePool, PooledPathBitIdenticalToFreshSpawnAcross120Queries) {
  constexpr int kQueries = 120;
  // Two workers so both persistent pools see heavy reuse; small cache so
  // rebuilds also land on the pooled path mid-run.
  DetectionService svc({.workers = 2,
                        .queue_capacity = kQueries,
                        .cache_capacity = 4});
  std::vector<graph::Graph> graphs;
  for (int i = 0; i < 2; ++i) {
    graphs.push_back(make_graph(i));
    svc.add_graph(graph_name(i), make_graph(i));
  }

  Xoshiro256 rng(99);
  std::vector<QuerySpec> specs;
  for (int qi = 0; qi < kQueries; ++qi) {
    QuerySpec q = draw_query(rng, qi);
    if (q.type == QueryType::kScan) {
      const auto gi = static_cast<std::size_t>(q.graph[1] - '0');
      q.weights = draw_weights(graphs[gi].num_vertices(), q.seed);
    }
    specs.push_back(std::move(q));
  }

  std::vector<std::shared_future<QueryResult>> futs;
  for (const auto& q : specs) futs.push_back(svc.submit(q));
  svc.drain();

  for (std::size_t i = 0; i < specs.size(); ++i) {
    const QuerySpec& q = specs[i];
    SCOPED_TRACE("query " + std::to_string(i) + " type=" +
                 std::string(to_string(q.type)) +
                 " kernel=" + std::to_string(static_cast<int>(q.kernel)) +
                 " seed=" + std::to_string(q.seed));
    const QueryResult got = futs[i].get();
    const auto gi = static_cast<std::size_t>(q.graph[1] - '0');
    const QueryResult want = reference_run(graphs[gi], q);
    EXPECT_EQ(got.found, want.found);
    EXPECT_EQ(got.rounds_run, want.rounds_run);
    EXPECT_EQ(got.found_round, want.found_round);
    EXPECT_EQ(got.vtime, want.vtime);  // bit-exact modeled makespan
    if (q.type == QueryType::kScan) {
      EXPECT_EQ(got.table.feasible, want.table.feasible);
    }
  }

  // The whole point: those gangs ran on warm pool threads, not fresh
  // spawns.
  const auto s = svc.stats();
  EXPECT_GT(s.pool_reuse, 0u);
  EXPECT_EQ(s.workers, 2);
}

TEST(ServicePool, PooledMotifBitIdenticalToFreshSpawn) {
  // Motif queries on the pooled path, every (kernel, field width) pair:
  // answers and the modeled makespan must equal a fresh spawn's.
  DetectionService svc({.workers = 2, .queue_capacity = 64});
  std::vector<graph::Graph> graphs;
  for (int i = 0; i < 2; ++i) {
    graphs.push_back(make_graph(i));
    svc.add_graph(graph_name(i), make_graph(i));
  }
  Xoshiro256 rng(123);
  std::vector<QuerySpec> specs;
  int qi = 0;
  for (const core::Kernel kernel :
       {core::Kernel::kScalar, core::Kernel::kBitsliced})
    for (const int bits : {4, 8})
      for (int rep = 0; rep < 6; ++rep, ++qi) {
        QuerySpec q;
        q.type = QueryType::kMotif;
        const int gi = static_cast<int>(rng.below(2));
        q.graph = graph_name(gi);
        q.k = 3 + static_cast<int>(rng.below(2));
        q.field_bits = bits;
        q.kernel = kernel;
        q.seed = 50'000u + static_cast<std::uint64_t>(qi);
        q.max_rounds = 2;
        q.n1 = 2;
        q.n_ranks = rng.below(2) == 0 ? 2 : 4;
        q.n2 = 8;
        // Three colors, every one present; the motif draws from them.
        q.colors.resize(graphs[static_cast<std::size_t>(gi)].num_vertices());
        for (std::size_t v = 0; v < q.colors.size(); ++v)
          q.colors[v] = v < 3 ? static_cast<std::uint32_t>(v)
                              : static_cast<std::uint32_t>(rng.below(3));
        for (int s = 0; s < q.k; ++s)
          q.motif.push_back(static_cast<std::uint32_t>(rng.below(3)));
        specs.push_back(std::move(q));
      }

  std::vector<std::shared_future<QueryResult>> futs;
  for (const auto& q : specs) futs.push_back(svc.submit(q));
  svc.drain();

  int found = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const QuerySpec& q = specs[i];
    SCOPED_TRACE("query " + std::to_string(i) +
                 " kernel=" + std::to_string(static_cast<int>(q.kernel)) +
                 " l=" + std::to_string(q.field_bits));
    const QueryResult got = futs[i].get();
    const auto gi = static_cast<std::size_t>(q.graph[1] - '0');
    const QueryResult want = reference_run(graphs[gi], q);
    EXPECT_EQ(got.found, want.found);
    EXPECT_EQ(got.rounds_run, want.rounds_run);
    EXPECT_EQ(got.found_round, want.found_round);
    EXPECT_EQ(got.vtime, want.vtime);  // bit-exact modeled makespan
    found += got.found ? 1 : 0;
  }
  EXPECT_GT(found, 0);  // the comparison covers "yes" answers too
  EXPECT_GT(svc.stats().pool_reuse, 0u);
}

TEST(ServicePool, ShardDispatchSpreadsAndIdleWorkersSteal) {
  std::mutex m;
  std::condition_variable cv;
  bool release_block = false;

  ServiceOptions opt;
  opt.workers = 2;
  opt.queue_capacity = 16;
  opt.shed_enabled = false;
  // One marked query blocks its worker until the test releases it; every
  // other query runs immediately.
  opt.before_execute = [&](const QuerySpec& q) {
    if (q.seed == 1) {
      std::unique_lock lock(m);
      cv.wait(lock, [&] { return release_block; });
    }
  };
  DetectionService svc(opt);
  Xoshiro256 rng(5);
  svc.add_graph("g", graph::erdos_renyi_gnm(60, 240, rng));

  auto query = [](std::uint64_t seed) {
    QuerySpec q;
    q.type = QueryType::kPath;
    q.graph = "g";
    q.lane = Lane::kBatch;
    q.k = 3;
    q.seed = seed;
    q.max_rounds = 1;
    q.n_ranks = 2;
    q.n1 = 2;
    q.n2 = 8;
    return q;
  };

  // seed=1 wedges one worker inside before_execute; seed=2 occupies the
  // other briefly; 3 and 4 land one per shard (least-loaded placement),
  // and the free worker must steal whichever queued on the wedged
  // worker's shard after finishing its own.
  auto blocked = svc.submit(query(1));
  std::vector<std::shared_future<QueryResult>> rest;
  rest.push_back(svc.submit(query(2)));
  rest.push_back(svc.submit(query(3)));
  rest.push_back(svc.submit(query(4)));
  for (auto& f : rest) f.wait();

  const auto mid = svc.stats();
  EXPECT_GE(mid.steals, 1u);

  {
    std::lock_guard lock(m);
    release_block = true;
  }
  cv.notify_all();
  blocked.wait();
  svc.drain();
  const auto s = svc.stats();
  EXPECT_EQ(s.executed, 4u);
  // All charges released: the load gauges go back to zero.
  for (double load : s.shard_load) EXPECT_DOUBLE_EQ(load, 0.0);
}

TEST(ServicePool, WorkerKillSelfHealsOnPooledPathAndStaysBitExact) {
  ServiceOptions opt;
  opt.workers = 2;
  opt.queue_capacity = 64;
  opt.retry.max_attempts = 4;
  opt.chaos.worker_kill_p = 0.5;  // seeded kills at dequeue
  opt.chaos.max_faulty_attempts = 2;
  opt.chaos.seed = 77;
  DetectionService svc(opt);
  std::vector<graph::Graph> graphs;
  for (int i = 0; i < 2; ++i) {
    graphs.push_back(make_graph(i));
    svc.add_graph(graph_name(i), make_graph(i));
  }

  Xoshiro256 rng(123);
  std::vector<QuerySpec> specs;
  for (int qi = 0; qi < 40; ++qi) {
    QuerySpec q = draw_query(rng, qi);
    if (q.type == QueryType::kScan) {
      const auto gi = static_cast<std::size_t>(q.graph[1] - '0');
      q.weights = draw_weights(graphs[gi].num_vertices(), q.seed);
    }
    specs.push_back(std::move(q));
  }
  std::vector<std::shared_future<QueryResult>> futs;
  for (const auto& q : specs) futs.push_back(svc.submit(q));
  svc.drain();

  for (std::size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    const QueryResult got = futs[i].get();  // no ticket lost to a kill
    const auto gi = static_cast<std::size_t>(specs[i].graph[1] - '0');
    const QueryResult want = reference_run(graphs[gi], specs[i]);
    EXPECT_EQ(got.found, want.found);
    EXPECT_EQ(got.vtime, want.vtime);
  }
  const auto s = svc.stats();
  EXPECT_GT(s.worker_restarts, 0u);  // kills actually happened
  EXPECT_EQ(s.workers_alive, 2u);    // and every one was replaced
}

}  // namespace
