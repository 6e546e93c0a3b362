// Chaos soak for the DetectionService resilience layer: the same seeded
// 200-query heterogeneous mix as test_service_soak, but pushed through a
// service whose chaos harness is injecting rank kills, message corruption,
// forced artifact-build failures, and worker-thread kills. Every query must
// still complete, every answer must be bit-identical to a fresh fault-free
// engine run (sans vtime — masked kills and retransmissions cost modeled
// time by design), the worker pool must never shrink, and a second identical
// run must reproduce the same answers and the same injected-failure counts.
// Runs under the TSan and ASan ctest labels, so it is also the race/UB gate
// for the retry heap, hedge watchdog, breaker, and self-healing pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/detect_par.hpp"
#include "core/motif.hpp"
#include "core/tree_template.hpp"
#include "fixtures.hpp"
#include "gf/gf256.hpp"
#include "gf/gfsmall.hpp"
#include "graph/csr.hpp"
#include "partition/multilevel.hpp"
#include "runtime/fault.hpp"
#include "runtime/trace.hpp"
#include "service/query.hpp"
#include "service/resilience.hpp"
#include "service/service.hpp"
#include "util/rng.hpp"

namespace {

using namespace midas;
using fixtures::graph_name;
using service::DetectionService;
using service::Lane;
using service::QueryResult;
using service::QuerySpec;
using service::QueryType;
using service::ServiceOptions;

constexpr int kGraphs = 4;
constexpr int kQueries = 200;
constexpr std::uint32_t kPalette = 3;  // motif-query color count

/// Same deterministic draw as the fault-free soak (shifted base seed so the
/// two suites exercise different mixes).
QuerySpec draw_query(Xoshiro256& rng, int qi) {
  QuerySpec q;
  const std::uint64_t t = rng.below(4);
  q.type = t == 0 ? QueryType::kTree
                  : (t == 1 ? QueryType::kScan
                            : (t == 2 ? QueryType::kMotif
                                      : QueryType::kPath));
  q.graph = graph_name(static_cast<int>(rng.below(kGraphs)));
  q.lane = rng.below(3) == 0 ? Lane::kInteractive : Lane::kBatch;
  q.k = 3 + static_cast<int>(rng.below(3));  // 3..5
  const std::uint64_t l = rng.below(3);
  q.field_bits = l == 0 ? 8 : (l == 1 ? 4 : 12);
  q.seed = 20'000u + static_cast<std::uint64_t>(qi);
  q.max_rounds = 1 + static_cast<int>(rng.below(2));
  q.kernel = rng.below(2) == 0 ? core::Kernel::kScalar
                               : core::Kernel::kBitsliced;
  q.n1 = 2;
  q.n_ranks = rng.below(2) == 0 ? 2 : 4;
  q.n2 = rng.below(2) == 0 ? 8 : 16;
  if (q.type == QueryType::kTree) {
    for (std::uint32_t i = 1; i < static_cast<std::uint32_t>(q.k); ++i)
      q.tree_edges.emplace_back(static_cast<std::uint32_t>(rng.below(i)),
                                i);
  }
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

/// Fresh fault-free single-query run — the answer every chaos-ridden
/// service execution must reproduce bit-exactly.
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
        break;
      }
      case QueryType::kScan: {
        const auto r = core::midas_scan(g, part, q.weights, opt, f);
        out.table = r.table;
        out.rounds_run = q.rounds();
        break;
      }
      case QueryType::kMotif: {
        const auto r = core::midas_motif(g, part, q.colors, q.motif, opt, f);
        out.found = r.found;
        out.rounds_run = r.rounds_run;
        out.found_round = r.found_round;
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

service::ServiceFaultPlan chaos_plan() {
  service::ServiceFaultPlan plan;
  plan.seed = 0xC4A05;
  plan.query_kill_p = 0.35;     // rank kills: masked by failover when a
                                // phase group survives, else retryable
  plan.query_corrupt_p = 0.35;  // corruption: always masked by checksums
  plan.corrupt_channel_p = 0.05;
  plan.build_fail_p = 0.30;     // forced artifact-build failures
  plan.worker_kill_p = 0.05;    // worker dies at dequeue, pool self-heals
  plan.max_faulty_attempts = 2;
  return plan;
}

ServiceOptions chaos_options() {
  ServiceOptions opt;
  opt.workers = 4;
  opt.queue_capacity = kQueries;
  opt.cache_capacity = 6;  // evictions + chaos-failed rebuilds mid-soak
  // Worst retry chain per ticket: up to max_faulty_attempts failed builds
  // on each of its two artifact keys plus engine-fault attempts below
  // max_faulty_attempts — 8 covers it with slack.
  opt.retry.max_attempts = 8;
  // The breaker is unit-tested; in the soak it would (correctly) fast-fail
  // admissions while forced build failures burn a graph's key, which is
  // not what this test asserts.
  opt.breaker.enabled = false;
  opt.chaos = chaos_plan();
  return opt;
}

struct SoakRun {
  std::vector<QueryResult> results;
  service::ServiceStats stats;
};

SoakRun run_chaos_soak(const std::vector<QuerySpec>& specs) {
  DetectionService svc(chaos_options());
  for (int i = 0; i < kGraphs; ++i)
    svc.add_graph(graph_name(i), fixtures::make_graph(i));

  std::vector<std::shared_future<QueryResult>> futs;
  futs.reserve(specs.size());
  for (const auto& q : specs) futs.push_back(svc.submit(q));
  svc.drain();

  SoakRun out;
  out.results.reserve(futs.size());
  for (auto& f : futs) out.results.push_back(f.get());  // throws on failure
  out.stats = svc.stats();
  return out;
}

std::vector<QuerySpec> draw_soak_specs(
    const std::vector<graph::Graph>& graphs) {
  Xoshiro256 rng(4242);
  std::vector<QuerySpec> specs;
  specs.reserve(kQueries);
  for (int qi = 0; qi < kQueries; ++qi) {
    QuerySpec q = draw_query(rng, qi);
    const auto gi = static_cast<std::size_t>(q.graph[1] - '0');
    if (q.type == QueryType::kScan)
      q.weights = fixtures::draw_weights(graphs[gi].num_vertices(), q.seed);
    if (q.type == QueryType::kMotif) {
      q.colors = fixtures::draw_colors(graphs[gi].num_vertices(), kPalette,
                                       q.seed);
      q.motif = fixtures::draw_motif(q.colors, q.k, q.seed);
    }
    specs.push_back(std::move(q));
  }
  return specs;
}

void expect_same_answer(const QueryResult& got, const QueryResult& want,
                        const QuerySpec& q) {
  EXPECT_EQ(got.found, want.found);
  EXPECT_EQ(got.rounds_run, want.rounds_run);
  EXPECT_EQ(got.found_round, want.found_round);
  if (q.type == QueryType::kScan) {
    EXPECT_EQ(got.table.k, want.table.k);
    EXPECT_EQ(got.table.max_weight, want.table.max_weight);
    EXPECT_EQ(got.table.feasible, want.table.feasible);
  }
  // vtime is deliberately NOT compared: masked kills and checksum
  // retransmissions cost modeled time. The *answer* must be unaffected.
}

// ---------------------------------------------------------------------------
// The soak itself
// ---------------------------------------------------------------------------

TEST(ServiceChaos, TwoHundredMixedQueriesSurviveSeededChaosBitExact) {
  std::vector<graph::Graph> graphs;
  for (int i = 0; i < kGraphs; ++i) graphs.push_back(fixtures::make_graph(i));
  const auto specs = draw_soak_specs(graphs);

  const SoakRun run = run_chaos_soak(specs);
  ASSERT_EQ(run.results.size(), specs.size());

  for (std::size_t i = 0; i < specs.size(); ++i) {
    const QuerySpec& q = specs[i];
    SCOPED_TRACE("query " + std::to_string(i) + ": type=" +
                 std::string(to_string(q.type)) + " graph=" + q.graph +
                 " k=" + std::to_string(q.k) +
                 " l=" + std::to_string(q.field_bits) +
                 " seed=" + std::to_string(q.seed));
    const auto gi = static_cast<std::size_t>(q.graph[1] - '0');
    expect_same_answer(run.results[i], reference_run(graphs[gi], q), q);
  }

  const auto& s = run.stats;
  // 100% of (retryable) queries completed: nothing failed, shed, rejected,
  // or timed out — chaos at these rates is fully absorbed by the budget.
  EXPECT_EQ(s.failed, 0u);
  EXPECT_EQ(s.rejected, 0u);
  EXPECT_EQ(s.shed, 0u);
  EXPECT_EQ(s.deadline_exceeded, 0u);
  // The harness actually did something.
  EXPECT_GT(s.chaos_engine_faults, 0u);
  EXPECT_GT(s.chaos_build_failures, 0u);
  EXPECT_GT(s.attempt_failures, 0u);
  EXPECT_GT(s.retried, 0u);
  // Workers were killed and the pool healed back to full strength.
  EXPECT_GT(s.worker_restarts, 0u);
  EXPECT_EQ(s.workers_alive, 4u);
  EXPECT_EQ(s.retry_pending, 0u);
  EXPECT_EQ(s.inflight, 0u);
}

TEST(ServiceChaos, IdenticalRerunReproducesAnswersAndInjectedFailures) {
  std::vector<graph::Graph> graphs;
  for (int i = 0; i < kGraphs; ++i) graphs.push_back(fixtures::make_graph(i));
  const auto specs = draw_soak_specs(graphs);

  const SoakRun a = run_chaos_soak(specs);
  const SoakRun b = run_chaos_soak(specs);
  ASSERT_EQ(a.results.size(), b.results.size());

  for (std::size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    expect_same_answer(a.results[i], b.results[i], specs[i]);
  }
  // Forced build failures are a pure function of (seed, key, per-key build
  // index); a key's build indices are sequential under single-flight and
  // stop at its first clean build, so eviction rebuilds draw nothing and
  // the injected-failure count is rerun-stable even though *which* ticket
  // observes each failure, and how often a key is rebuilt, is
  // scheduling-dependent.
  EXPECT_EQ(a.stats.chaos_build_failures, b.stats.chaos_build_failures);
  EXPECT_EQ(a.stats.failed, 0u);
  EXPECT_EQ(b.stats.failed, 0u);
}

// ---------------------------------------------------------------------------
// Deterministic retry schedules and injector decisions (pure functions)
// ---------------------------------------------------------------------------

TEST(ServiceChaos, RetryScheduleIsDeterministicBoundedAndGrows) {
  service::RetryPolicy p;
  p.max_attempts = 8;
  p.base_backoff_s = 1e-3;
  p.multiplier = 2.0;
  p.max_backoff_s = 0.1;
  p.jitter = 0.5;

  for (std::uint64_t key : {0xABCull, 0x123456789ull, 7ull}) {
    double prev_nominal = 0.0;
    for (int attempt = 1; attempt <= 12; ++attempt) {
      const double d1 = service::backoff_s(p, key, attempt);
      const double d2 = service::backoff_s(p, key, attempt);
      EXPECT_EQ(d1, d2);  // bit-identical schedule across reruns
      const double nominal =
          std::min(p.max_backoff_s,
                   p.base_backoff_s * std::pow(p.multiplier, attempt - 1));
      EXPECT_GE(d1, nominal * (1.0 - p.jitter) - 1e-12);
      EXPECT_LE(d1, nominal * (1.0 + p.jitter) + 1e-12);
      EXPECT_GE(nominal, prev_nominal);  // monotone pre-jitter growth
      prev_nominal = nominal;
    }
  }
  // Different queries draw different jitter (with overwhelming probability
  // over any handful of keys).
  bool any_differ = false;
  for (std::uint64_t key = 1; key <= 8 && !any_differ; ++key)
    any_differ = service::backoff_s(p, key, 3) !=
                 service::backoff_s(p, key + 100, 3);
  EXPECT_TRUE(any_differ);
}

TEST(ServiceChaos, InjectorDecisionsAreSeedDeterministicAndBounded) {
  service::ServiceFaultPlan plan = chaos_plan();
  const service::ServiceFaultInjector inj1(plan);
  const service::ServiceFaultInjector inj2(plan);
  plan.seed ^= 0xF00D;
  const service::ServiceFaultInjector other(plan);

  bool any_injected = false;
  bool any_seed_difference = false;
  for (std::uint64_t fp = 1; fp <= 64; ++fp) {
    for (int attempt = 0; attempt < plan.max_faulty_attempts + 2; ++attempt) {
      core::MidasOptions a, b, c;
      a.n_ranks = b.n_ranks = c.n_ranks = 4;
      const bool ia = inj1.apply_engine_faults(a, fp, attempt);
      const bool ib = inj2.apply_engine_faults(b, fp, attempt);
      EXPECT_EQ(ia, ib);
      ASSERT_EQ(a.spmd.faults.kills.size(), b.spmd.faults.kills.size());
      for (std::size_t j = 0; j < a.spmd.faults.kills.size(); ++j) {
        EXPECT_EQ(a.spmd.faults.kills[j].world_rank,
                  b.spmd.faults.kills[j].world_rank);
        EXPECT_EQ(a.spmd.faults.kills[j].at_event,
                  b.spmd.faults.kills[j].at_event);
      }
      EXPECT_EQ(a.spmd.faults.channels.size(), b.spmd.faults.channels.size());
      EXPECT_EQ(a.spmd.faults.seed, b.spmd.faults.seed);
      if (ia) any_injected = true;
      if (attempt >= plan.max_faulty_attempts) {
        // Attempts past the fault budget are always clean: termination.
        EXPECT_FALSE(ia);
      }
      if (ia != other.apply_engine_faults(c, fp, attempt))
        any_seed_difference = true;
    }
    EXPECT_EQ(inj1.should_kill_worker(fp), inj2.should_kill_worker(fp));
  }
  EXPECT_TRUE(any_injected);
  EXPECT_TRUE(any_seed_difference);

  for (const char* key : {"g0:views:2", "g1:rand:5:8", "blk:views:2"}) {
    for (std::uint64_t build = 0; build < 6; ++build) {
      EXPECT_EQ(inj1.should_fail_build(key, build),
                inj2.should_fail_build(key, build));
      if (build >= static_cast<std::uint64_t>(plan.max_faulty_attempts)) {
        // Builds past the budget always succeed: every key becomes
        // buildable within a bounded number of retries.
        EXPECT_FALSE(inj1.should_fail_build(key, build));
      }
    }
  }
}

TEST(ServiceChaos, FailureClassificationSplitsRetryableFromFatal) {
  using service::FaultClass;
  auto classify = [](auto&& make) {
    try {
      make();
    } catch (...) {
      return service::classify_failure(std::current_exception());
    }
    return FaultClass::kFatal;
  };
  EXPECT_EQ(classify([] {
              throw service::InjectedBuildFailureError("g0:views:2", 1);
            }),
            FaultClass::kRetryable);
  EXPECT_EQ(classify([] { throw service::WorkerKilledFault(3); }),
            FaultClass::kRetryable);
  EXPECT_EQ(classify([] {
              throw runtime::RankFailedError(2, "killed by fault plan");
            }),
            FaultClass::kRetryable);
  EXPECT_EQ(classify([] { throw service::UnknownGraphError("nope"); }),
            FaultClass::kFatal);
  EXPECT_EQ(classify([] { throw std::invalid_argument("bad k"); }),
            FaultClass::kFatal);
}

// ---------------------------------------------------------------------------
// Resilience metrics surface in the exported metrics JSON
// ---------------------------------------------------------------------------

TEST(ServiceChaos, ResilienceMetricsAppearInExportedMetricsJson) {
  auto& tracer = runtime::tracer();
  tracer.enable();
  tracer.reset();
  {
    std::promise<void> release;
    std::shared_future<void> gate = release.get_future().share();

    ServiceOptions opt;
    opt.workers = 1;
    opt.queue_capacity = 16;
    opt.retry.max_attempts = 6;
    opt.breaker.failure_threshold = 100;  // gauge updates, never trips
    opt.chaos.build_fail_p = 1.0;   // -> service.retries
    opt.chaos.worker_kill_p = 1.0;  // -> service.worker_restarts
    opt.chaos.max_faulty_attempts = 1;
    opt.shed_enabled = true;
    opt.shed_min_samples = 1;
    opt.hedge_multiplier = 0.05;  // hedge the gated straggler below
    opt.hedge_min_samples = 1;
    opt.hedge_min_s = 0.0;
    opt.supervisor_poll_s = 0.001;
    opt.before_execute = [gate](const QuerySpec& q) {
      if (q.graph == "blk") gate.wait();
    };
    DetectionService svc(opt);
    Xoshiro256 rng(11);
    svc.add_graph("g", graph::erdos_renyi_gnm(40, 120, rng));
    svc.add_graph("blk", graph::erdos_renyi_gnm(40, 120, rng));

    auto path_query = [](const std::string& g, std::uint64_t seed) {
      QuerySpec q;
      q.type = QueryType::kPath;
      q.graph = g;
      q.lane = Lane::kBatch;
      q.k = 3;
      q.seed = seed;
      q.max_rounds = 1;
      return q;
    };

    // Seeds the latency window (retrying through forced build failures and
    // one worker kill along the way).
    svc.submit(path_query("g", 1)).get();

    // Straggles at the gate until released; the watchdog hedges it.
    auto blocked = svc.submit(path_query("blk", 2));
    std::this_thread::sleep_for(std::chrono::milliseconds(80));

    // Queued behind the straggler; an infeasible deadline is shed.
    auto queued = svc.submit(path_query("g", 3));
    QuerySpec doomed = path_query("g", 4);
    doomed.timeout_s = 1e-9;
    EXPECT_THROW((void)svc.submit(doomed), service::DeadlineInfeasibleError);

    release.set_value();
    svc.drain();
    blocked.get();
    queued.get();
    const auto s = svc.stats();
    EXPECT_GT(s.retried, 0u);
    EXPECT_GT(s.worker_restarts, 0u);
    EXPECT_GT(s.hedges, 0u);
    EXPECT_EQ(s.shed, 1u);
  }
  const std::string json = tracer.metrics_json();
  tracer.disable();
  tracer.reset();

  for (const char* metric :
       {"service.retries", "service.hedges", "service.shed",
        "service.breaker_state", "service.worker_restarts",
        "service.chaos_build_failures"}) {
    SCOPED_TRACE(metric);
    EXPECT_NE(json.find(metric), std::string::npos);
  }
}

}  // namespace
