#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <stdexcept>

#include "runtime/fault.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using midas::Xoshiro256;
using midas::service::GraphSpec;
using midas::service::Lane;
using midas::service::QuerySpec;
using midas::service::QueryType;

GraphSpec gnp(std::string name, std::uint32_t n, double avg_degree,
              std::uint64_t seed) {
  GraphSpec g;
  g.name = std::move(name);
  g.kind = "gnp";
  g.n = n;
  g.fparam = avg_degree / static_cast<double>(n - 1);
  g.seed = seed;
  return g;
}

GraphSpec ba(std::string name, std::uint32_t n, std::uint32_t attach,
             std::uint64_t seed) {
  GraphSpec g;
  g.name = std::move(name);
  g.kind = "ba";
  g.n = n;
  g.attach = attach;
  g.seed = seed;
  return g;
}

GraphSpec road(std::string name, std::uint32_t n, std::uint64_t seed) {
  GraphSpec g;
  g.name = std::move(name);
  g.kind = "road";
  g.n = n;
  g.fparam = 0.9;
  g.seed = seed;
  return g;
}

/// A tree template over [0, k): vertex i hangs off (i-1)/3, so k=4 is the
/// star K(1,3) — a real tree query, not a path in disguise.
std::vector<std::pair<std::uint32_t, std::uint32_t>> tree_template(int k) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (int i = 1; i < k; ++i)
    edges.emplace_back(static_cast<std::uint32_t>((i - 1) / 3),
                       static_cast<std::uint32_t>(i));
  return edges;
}

QuerySpec base_query(QueryType type, const GraphSpec& g, int k,
                     std::uint64_t seed) {
  QuerySpec q;
  q.type = type;
  q.graph = g.name;
  q.k = k;
  q.seed = seed;
  if (type == QueryType::kTree) q.tree_edges = tree_template(k);
  return q;
}

/// Motif query: every vertex colored from a 3-color palette, and the
/// queried multiset sampled from the coloring so it is color-feasible.
QuerySpec motif_query(const GraphSpec& g, int k, std::uint64_t seed) {
  QuerySpec q = base_query(QueryType::kMotif, g, k, seed);
  Xoshiro256 rng(seed ^ 0xC0104C5ULL);
  q.colors.resize(g.n);
  for (auto& c : q.colors) c = static_cast<std::uint32_t>(rng.below(3));
  for (int i = 0; i < k; ++i) q.motif.push_back(q.colors[rng.below(g.n)]);
  return q;
}

QuerySpec scan_query(const GraphSpec& g, int k, std::uint64_t seed) {
  QuerySpec q = base_query(QueryType::kScan, g, k, seed);
  Xoshiro256 rng(seed ^ 0x5CA1AB1EULL);
  q.weights.resize(g.n);
  for (auto& w : q.weights) w = static_cast<std::uint32_t>(rng.below(5));
  return q;
}

void set_geometry(QuerySpec& q, int n_ranks, int n1, std::uint32_t n2) {
  q.n_ranks = n_ranks;
  q.n1 = n1;
  q.n2 = n2;
}

// -- wire-small --------------------------------------------------------------

constexpr int kFreshPerKind = 128;   // distinct fresh-seed queries per kind
constexpr std::size_t kWireCycle = 16384;  // longer than any run's traffic

Workload wire_small(std::uint64_t seed) {
  Workload w;
  w.name = "wire-small";
  w.why =
      "small queries (1-8 ms of engine): framing, admission lanes, dispatch, "
      "rand-table builds and rank-pool handoff are a large share of latency";
  w.stresses =
      "net codec and epoll loop, admission lanes (~30% interactive), "
      "dispatch, artifact-cache hits, rand-table builds, rank-pool handoff";
  w.bypasses = "partition and view builds (warm before timing), certify";
  w.setups = 9;
  w.loop = Loop::kOpen;
  // About 1/6 of the closed-loop capacity on a quiet 4-core host (850-930
  // q/s), so the open loop stays below capacity when a shared host steals
  // 40% of the CPU (measured: 300 q/s then overran the admission queues).
  w.rate_qps = 150.0;
  w.connections = 4;

  Xoshiro256 rng(midas::runtime::fault_mix(seed ^ 0x57A11ULL));
  w.graphs = {gnp("ws-gnp", 1000, 5.0, rng()), road("ws-road", 1000, rng()),
              ba("ws-ba", 1000, 2, rng())};
  const auto& G = w.graphs;

  // Pool: four path queries whose (graph, seed, k) repeat, so their
  // rand tables stay resident and hit; fresh queries always miss.
  std::vector<std::uint32_t> pool;
  const int pool_k[4] = {4, 4, 5, 5};
  for (int i = 0; i < 4; ++i) {
    pool.push_back(static_cast<std::uint32_t>(w.distinct.size()));
    w.distinct.push_back(
        base_query(QueryType::kPath, G[static_cast<std::size_t>(i % 3)],
                   pool_k[i], rng()));
  }
  // Fresh queries rotate through the graphs (and path k through 4, 5) in
  // a fixed pattern, so every seed carries the same mix of work.
  std::vector<std::uint32_t> fresh[3];  // path, tree, motif
  for (int i = 0; i < kFreshPerKind; ++i) {
    const auto at = [&](int shift) -> const GraphSpec& {
      return G[static_cast<std::size_t>((i + shift) % 3)];
    };
    fresh[0].push_back(static_cast<std::uint32_t>(w.distinct.size()));
    w.distinct.push_back(
        base_query(QueryType::kPath, at(0), 4 + (i / 3) % 2, rng()));
    fresh[1].push_back(static_cast<std::uint32_t>(w.distinct.size()));
    w.distinct.push_back(base_query(QueryType::kTree, at(1), 4, rng()));
    fresh[2].push_back(static_cast<std::uint32_t>(w.distinct.size()));
    w.distinct.push_back(motif_query(at(2), 4, rng()));
  }
  w.warmup = pool;
  w.warmup.push_back(fresh[1][0]);
  w.warmup.push_back(fresh[2][0]);

  // Traffic: a quarter each of pool paths, fresh paths, trees and motifs.
  std::size_t next[3] = {0, 1, 1};  // index 0 of tree/motif ran in warm-up
  for (std::size_t i = 0; i < kWireCycle; ++i) {
    Request r;
    r.lane = rng.bernoulli(0.3) ? Lane::kInteractive : Lane::kBatch;
    const std::uint64_t kind = rng.below(4);
    if (kind == 0) {
      r.query = pool[rng.below(pool.size())];
    } else {
      auto& list = fresh[kind - 1];
      auto& at = next[kind - 1];
      r.query = list[at % list.size()];
      ++at;
    }
    w.cycle.push_back(r);
  }
  return w;
}

// -- engine-large ------------------------------------------------------------

Workload engine_large(std::uint64_t seed) {
  Workload w;
  w.name = "engine-large";
  w.why =
      "the paper's regime: one large query at a time using every core, so "
      "kernel, level fold, halo exchange and the rank gang do the work";
  w.stresses =
      "core engines (path, tree, motif, scan), gf kernels, halo "
      "exchange, rank gang";
  w.bypasses =
      "admission queueing (one query in flight), partition and view builds "
      "(warm), certify";
  w.loop = Loop::kClosed;
  w.connections = 1;
  w.window = 1;
  w.whole_cycles = true;

  Xoshiro256 rng(midas::runtime::fault_mix(seed ^ 0xE16ULL));
  w.graphs = {gnp("el-gnp", 20000, 5.0, rng()),
              ba("el-ba", 20000, 3, rng()), road("el-road", 2000, rng())};
  const auto& G = w.graphs;

  QuerySpec path = base_query(QueryType::kPath, G[0], 8, rng());
  set_geometry(path, 4, 2, 32);
  QuerySpec tree = base_query(QueryType::kTree, G[1], 7, rng());
  set_geometry(tree, 4, 2, 32);
  QuerySpec motif = motif_query(G[0], 6, rng());
  set_geometry(motif, 4, 2, 32);
  QuerySpec scan = scan_query(G[2], 3, rng());
  set_geometry(scan, 4, 2, 32);
  w.distinct = {path, tree, motif, scan};
  w.warmup = {0, 1, 2, 3};
  for (std::uint32_t i = 0; i < 4; ++i) w.cycle.push_back({i, Lane::kBatch});
  return w;
}

// -- cold-churn --------------------------------------------------------------

constexpr int kChurnGraphs = 20;  // > the service cache's 16 entries

Workload cold_churn(std::uint64_t seed) {
  Workload w;
  w.name = "cold-churn";
  w.why =
      "more graphs than cache entries, round-robin: every query partitions, "
      "builds views and rand tables, evicts, and certifies its witness";
  w.stresses =
      "partition (multilevel + views), rand-table builds, LRU eviction, "
      "certify (peel + validate)";
  w.bypasses = "artifact-cache hits, admission queueing beyond 4 in flight";
  w.setups = 5;
  w.loop = Loop::kClosed;
  w.connections = 4;
  w.window = 1;

  Xoshiro256 rng(midas::runtime::fault_mix(seed ^ 0xC01DULL));
  for (int i = 0; i < kChurnGraphs; ++i) {
    const std::string name = "cc-g" + std::to_string(i);
    switch (i % 3) {
      case 0: w.graphs.push_back(gnp(name, 4000, 5.0, rng())); break;
      case 1: w.graphs.push_back(road(name, 4000, rng())); break;
      default: w.graphs.push_back(ba(name, 4000, 2, rng())); break;
    }
  }
  // Two passes over the graphs, alternating path and tree, so consecutive
  // queries never share a graph and each graph sees both types.
  for (int pass = 0; pass < 2; ++pass)
    for (int i = 0; i < kChurnGraphs; ++i) {
      const QueryType t =
          (i + pass) % 2 == 0 ? QueryType::kPath : QueryType::kTree;
      QuerySpec q = base_query(t, w.graphs[static_cast<std::size_t>(i)], 5,
                               rng());
      q.certify = true;
      w.cycle.push_back(
          {static_cast<std::uint32_t>(w.distinct.size()), Lane::kBatch});
      w.distinct.push_back(std::move(q));
    }
  w.warmup = {0, 1, 2, 3};
  // Start the timed traffic after the warm-up's queries.
  std::rotate(w.cycle.begin(), w.cycle.begin() + 4, w.cycle.end());
  return w;
}

}  // namespace

std::vector<std::string> workload_names() {
  return {"wire-small", "engine-large", "cold-churn"};
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "wire-small") return wire_small(seed);
  if (name == "engine-large") return engine_large(seed);
  if (name == "cold-churn") return cold_churn(seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::vector<double> poisson_schedule(std::uint64_t seed, double rate_qps,
                                     double seconds) {
  Xoshiro256 rng(midas::runtime::fault_mix(seed ^ 0xA881ULL));
  std::vector<double> due;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / rate_qps;
    if (t >= seconds) break;
    due.push_back(t);
  }
  return due;
}

std::uint64_t answer_digest(const midas::service::QuerySpec& q,
                            const midas::service::QueryResult& r) {
  std::vector<std::uint64_t> w;
  w.reserve(16 + r.witness.size() + r.table.feasible.size());
  w.push_back(midas::service::query_fingerprint(q));
  w.push_back(r.found ? 1 : 0);
  w.push_back(static_cast<std::uint64_t>(r.rounds_run));
  w.push_back(static_cast<std::uint64_t>(
      static_cast<std::int64_t>(r.found_round)));
  std::uint64_t eps_bits = 0;
  std::memcpy(&eps_bits, &r.achieved_epsilon, sizeof(eps_bits));
  w.push_back(eps_bits);
  w.push_back(r.certified ? 1 : 0);
  for (auto v : r.witness) w.push_back(v);
  w.push_back(static_cast<std::uint64_t>(r.witness_j));
  w.push_back(r.witness_z);
  w.push_back(static_cast<std::uint64_t>(r.table.k));
  w.push_back(r.table.max_weight);
  for (const auto& row : r.table.feasible) {
    std::uint64_t bits = 0;
    for (std::size_t i = 0; i < row.size(); ++i)
      bits = bits * 31 + (row[i] ? i + 1 : 0);
    w.push_back(bits);
  }
  return midas::runtime::fnv1a(
      std::as_bytes(std::span<const std::uint64_t>(w)));
}

std::uint64_t fold_digests(const std::vector<std::uint64_t>& ds) {
  std::uint64_t sum = 0;
  for (std::uint64_t d : ds) sum += d;
  return sum;
}

}  // namespace perfbench
