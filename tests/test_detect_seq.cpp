// Sequential multilinear detection vs exact brute force.
//
// The "no" direction of Theorem 1 is deterministic: a graph with no k-path
// (k-tree, feasible (j,z) pair) must never be reported positive, for any
// seed. The "yes" direction is probabilistic; with the default epsilon the
// per-instance failure probability is ~0.05, so positive tests use a tight
// epsilon and the sweeps tolerate zero failures only on the "no" side.
#include <gtest/gtest.h>

#include <numeric>

#include "baseline/brute_force.hpp"
#include "core/detect_directed.hpp"
#include "core/detect_seq.hpp"
#include "core/errors.hpp"
#include "core/motif.hpp"
#include "core/scan2d.hpp"
#include "core/weighted.hpp"
#include "gf/gf256.hpp"
#include "gf/gf64.hpp"
#include "gf/gfsmall.hpp"
#include "graph/algorithms.hpp"
#include "graph/digraph.hpp"
#include "graph/generators.hpp"
#include "partition/partition.hpp"
#include "partition/partitioned_graph.hpp"
#include "util/rng.hpp"

namespace midas::core {
namespace {

using baseline::has_kpath;
using graph::Graph;

DetectOptions opts(int k, double eps = 1e-3, std::uint64_t seed = 7) {
  DetectOptions o;
  o.k = k;
  o.epsilon = eps;
  o.seed = seed;
  return o;
}

TEST(KPathSeq, PathGraphExactlyK) {
  gf::GF256 f;
  for (int k = 2; k <= 8; ++k) {
    const Graph g = graph::path_graph(static_cast<graph::VertexId>(k));
    const auto res = detect_kpath_seq(g, opts(k), f);
    EXPECT_TRUE(res.found) << "k=" << k;
  }
}

TEST(KPathSeq, PathGraphTooShortIsNo) {
  gf::GF256 f;
  for (int k = 3; k <= 9; ++k) {
    const Graph g = graph::path_graph(static_cast<graph::VertexId>(k - 1));
    const auto res = detect_kpath_seq(g, opts(k), f);
    EXPECT_FALSE(res.found) << "k=" << k;
    EXPECT_EQ(res.rounds_run, opts(k).rounds());
  }
}

TEST(KPathSeq, StarHasNoLongPath) {
  // A star has max path length 3 regardless of size.
  gf::GF256 f;
  const Graph g = graph::star_graph(12);
  EXPECT_TRUE(detect_kpath_seq(g, opts(3), f).found);
  EXPECT_FALSE(detect_kpath_seq(g, opts(4), f).found);
  EXPECT_FALSE(detect_kpath_seq(g, opts(5), f).found);
}

TEST(KPathSeq, CycleAndComplete) {
  gf::GF256 f;
  EXPECT_TRUE(detect_kpath_seq(graph::cycle_graph(6), opts(6), f).found);
  EXPECT_FALSE(detect_kpath_seq(graph::cycle_graph(6), opts(7), f).found);
  EXPECT_TRUE(detect_kpath_seq(graph::complete_graph(7), opts(7), f).found);
}

TEST(KPathSeq, KEqualsOneAndTwo) {
  gf::GF256 f;
  const Graph g = graph::path_graph(3);
  EXPECT_TRUE(detect_kpath_seq(g, opts(1), f).found);
  EXPECT_TRUE(detect_kpath_seq(g, opts(2), f).found);
  // Edgeless graph: 1-paths yes, 2-paths no.
  graph::GraphBuilder b(4);
  const Graph empty = b.build();
  EXPECT_TRUE(detect_kpath_seq(empty, opts(1), f).found);
  EXPECT_FALSE(detect_kpath_seq(empty, opts(2), f).found);
}

/// Sweep random graphs and compare against brute force. Ground-truth "no"
/// must never be contradicted; ground-truth "yes" must be found (epsilon
/// is 1e-3 per instance; ~120 positive instances => ~12% chance of a single
/// miss across the suite would be too flaky, so use 1e-4).
TEST(KPathSeq, RandomGraphSweepAgainstBruteForce) {
  gf::GF256 f;
  Xoshiro256 rng(99);
  int positives = 0, negatives = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const graph::VertexId n = 8 + static_cast<graph::VertexId>(rng.below(8));
    const double p = 0.08 + rng.uniform() * 0.20;
    const Graph g = graph::erdos_renyi_gnp(n, p, rng);
    for (int k = 3; k <= 6; ++k) {
      const bool truth = has_kpath(g, k);
      const auto res =
          detect_kpath_seq(g, opts(k, 1e-4, 1000 + trial), f);
      if (truth) {
        EXPECT_TRUE(res.found) << "n=" << n << " k=" << k
                               << " trial=" << trial;
        ++positives;
      } else {
        EXPECT_FALSE(res.found) << "n=" << n << " k=" << k
                                << " trial=" << trial;
        ++negatives;
      }
    }
  }
  // The sweep must exercise both directions.
  EXPECT_GT(positives, 20);
  EXPECT_GT(negatives, 20);
}

TEST(KPathSeq, WorksOverWiderFields) {
  const Graph yes = graph::path_graph(5);
  const Graph no = graph::star_graph(8);
  EXPECT_TRUE(detect_kpath_seq(yes, opts(5), gf::GFSmall(12)).found);
  EXPECT_FALSE(detect_kpath_seq(no, opts(5), gf::GFSmall(12)).found);
  EXPECT_TRUE(detect_kpath_seq(yes, opts(5), gf::GF64{}).found);
  EXPECT_FALSE(detect_kpath_seq(no, opts(5), gf::GF64{}).found);
}

TEST(KPathSeq, PerRoundSuccessRateMatchesTheory) {
  // Theorem 1 promises per-round success >= 1/5 on yes-instances. Measure
  // the empirical rate on a single path with many independent rounds; the
  // v-independence argument gives ~0.29 * (1 - k/2^8) in our construction.
  gf::GF256 f;
  const int k = 6;
  const Graph g = graph::path_graph(k);
  int hits = 0;
  const int rounds = 300;
  DetectOptions o = opts(k);
  o.max_rounds = 1;
  for (int round = 0; round < rounds; ++round) {
    o.seed = 5000 + static_cast<std::uint64_t>(round);
    if (detect_kpath_seq(g, o, f).found) ++hits;
  }
  const double rate = static_cast<double>(hits) / rounds;
  EXPECT_GE(rate, 0.20) << "empirical per-round success " << rate;
  EXPECT_LE(rate, 0.45) << "suspiciously high success " << rate;
}

// ---------------------------------------------------------------------------
// k-tree
// ---------------------------------------------------------------------------

TEST(KTreeSeq, StarTemplateInStar) {
  gf::GF256 f;
  const Graph tmpl = graph::star_graph(4);  // 4-vertex star
  TreeDecomposition td(tmpl, 0);
  EXPECT_TRUE(detect_ktree_seq(graph::star_graph(6), td, opts(4), f).found);
  // A path has no vertex of degree 3.
  EXPECT_FALSE(detect_ktree_seq(graph::path_graph(8), td, opts(4), f).found);
}

TEST(KTreeSeq, PathTemplateMatchesKPath) {
  gf::GF256 f;
  Xoshiro256 rng(123);
  for (int trial = 0; trial < 20; ++trial) {
    const graph::VertexId n = 8 + static_cast<graph::VertexId>(rng.below(6));
    const Graph g = graph::erdos_renyi_gnp(n, 0.18, rng);
    const int k = 4;
    const Graph tmpl = graph::path_graph(static_cast<graph::VertexId>(k));
    TreeDecomposition td(tmpl, 0);
    const bool truth = has_kpath(g, k);
    EXPECT_EQ(detect_ktree_seq(g, td, opts(k, 1e-4, 50 + trial), f).found,
              truth)
        << "trial=" << trial;
  }
}

TEST(KTreeSeq, RandomTreeTemplatesAgainstBruteForce) {
  gf::GF256 f;
  Xoshiro256 rng(321);
  int positives = 0, negatives = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const int k = 4 + static_cast<int>(rng.below(3));  // template size 4-6
    const Graph tmpl = graph::random_tree(static_cast<graph::VertexId>(k),
                                          rng);
    TreeDecomposition td(tmpl, 0);
    const graph::VertexId n = 8 + static_cast<graph::VertexId>(rng.below(6));
    const Graph g = graph::erdos_renyi_gnp(n, 0.15 + rng.uniform() * 0.1,
                                           rng);
    const bool truth = baseline::has_tree_embedding(g, tmpl);
    const auto res = detect_ktree_seq(g, td, opts(k, 1e-4, 900 + trial), f);
    EXPECT_EQ(res.found, truth) << "trial=" << trial << " k=" << k;
    truth ? ++positives : ++negatives;
  }
  EXPECT_GT(positives, 5);
  EXPECT_GT(negatives, 5);
}

TEST(TreeDecomposition, CountsAndSizes) {
  for (int k = 1; k <= 9; ++k) {
    Xoshiro256 rng(static_cast<std::uint64_t>(k));
    const Graph tmpl =
        graph::random_tree(static_cast<graph::VertexId>(k), rng);
    TreeDecomposition td(tmpl, 0);
    EXPECT_EQ(td.count(), 2 * k - 1);
    EXPECT_EQ(td.subtemplates().back().size, k);
    int leaves = 0;
    for (const auto& sub : td.subtemplates()) {
      if (sub.child1 < 0) {
        ++leaves;
        EXPECT_EQ(sub.size, 1);
      } else {
        // A parent's size is the sum of its children's sizes.
        const auto& subs = td.subtemplates();
        EXPECT_EQ(sub.size,
                  subs[static_cast<std::size_t>(sub.child1)].size +
                      subs[static_cast<std::size_t>(sub.child2)].size);
        // Children precede parents in evaluation order.
        EXPECT_LT(sub.child1, static_cast<int>(&sub - subs.data()));
        EXPECT_LT(sub.child2, static_cast<int>(&sub - subs.data()));
      }
    }
    EXPECT_EQ(leaves, k);
  }
}

TEST(TreeDecomposition, RejectsNonTrees) {
  EXPECT_THROW(TreeDecomposition(graph::cycle_graph(4), 0),
               std::invalid_argument);
  graph::GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  EXPECT_THROW(TreeDecomposition(b.build(), 0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Scan statistics feasibility
// ---------------------------------------------------------------------------

TEST(ScanSeq, FeasibilityMatchesBruteForceSmall) {
  gf::GF256 f;
  Xoshiro256 rng(77);
  for (int trial = 0; trial < 8; ++trial) {
    const graph::VertexId n = 7 + static_cast<graph::VertexId>(rng.below(4));
    const Graph g = graph::erdos_renyi_gnp(n, 0.25, rng);
    std::vector<std::uint32_t> w(n);
    for (auto& x : w) x = static_cast<std::uint32_t>(rng.below(4));
    const int k = 4;
    const auto truth = baseline::connected_subgraph_feasibility(g, w, k);
    ScanOptions o;
    o.k = k;
    o.epsilon = 1e-4;
    o.seed = 4000 + static_cast<std::uint64_t>(trial);
    const auto table = detect_scan_seq(g, w, o, f);
    for (int j = 1; j <= k; ++j) {
      for (std::uint32_t z = 0; z <= table.max_weight; ++z) {
        const bool expected =
            z < truth[static_cast<std::size_t>(j)].size() &&
            truth[static_cast<std::size_t>(j)][z];
        EXPECT_EQ(table.at(j, z), expected)
            << "trial=" << trial << " j=" << j << " z=" << z;
      }
    }
  }
}

TEST(ScanSeq, SingletonAndUniformWeights) {
  gf::GF256 f;
  const Graph g = graph::path_graph(5);
  std::vector<std::uint32_t> w(5, 1);  // uniform: weight == size
  ScanOptions o;
  o.k = 4;
  o.epsilon = 1e-4;
  const auto table = detect_scan_seq(g, w, o, f);
  for (int j = 1; j <= 4; ++j) {
    for (std::uint32_t z = 0; z <= table.max_weight; ++z) {
      EXPECT_EQ(table.at(j, z), z == static_cast<std::uint32_t>(j))
          << "j=" << j << " z=" << z;
    }
  }
}

// ---------------------------------------------------------------------------
// Hash-id maps: vertex i hashes as hash_ids[i]
// ---------------------------------------------------------------------------

/// A graph relabelled by a random permutation, with the inverse permutation:
/// vertex x of `graph` is vertex `inverse[x]` of the original, so detecting
/// on it with `inverse` as hash ids must reproduce the original's totals.
struct Relabelled {
  Graph graph;
  std::vector<graph::VertexId> inverse;

  /// One value per vertex of the original, moved to the relabelled ids.
  std::vector<std::uint32_t> carry(
      const std::vector<std::uint32_t>& values) const {
    std::vector<std::uint32_t> out(values.size());
    for (graph::VertexId x = 0; x < inverse.size(); ++x)
      out[x] = values[inverse[x]];
    return out;
  }
};

Relabelled relabel(const Graph& g, std::uint64_t seed) {
  const graph::VertexId n = g.num_vertices();
  Relabelled r;
  r.inverse.resize(n);
  std::iota(r.inverse.begin(), r.inverse.end(), 0);
  Xoshiro256 rng(seed);
  for (graph::VertexId i = n; i > 1; --i)
    std::swap(r.inverse[i - 1], r.inverse[rng.below(i)]);
  std::vector<graph::VertexId> perm(n);
  for (graph::VertexId x = 0; x < n; ++x) perm[r.inverse[x]] = x;
  graph::GraphBuilder b(n);
  for (auto [u, v] : g.edge_list()) b.add_edge(perm[u], perm[v]);
  r.graph = b.build();
  return r;
}

/// A gnp graph dense enough for 4-paths, sparse enough that some rounds
/// miss: every round total is compared, so both kinds must occur.
Graph hash_id_graph() {
  Xoshiro256 rng(404);
  return graph::erdos_renyi_gnp(24, 0.12, rng);
}

std::vector<graph::VertexId> identity_ids(graph::VertexId n) {
  std::vector<graph::VertexId> ids(n);
  std::iota(ids.begin(), ids.end(), 0);
  return ids;
}

constexpr Kernel kBothKernels[] = {Kernel::kScalar, Kernel::kBitsliced};

/// Twelve rounds, no early exit: a run of round totals to compare.
DetectOptions hash_id_opts(int k, Kernel kernel) {
  DetectOptions o = opts(k, 0.05, 31);
  o.max_rounds = 12;
  o.early_exit = false;
  o.kernel = kernel;
  return o;
}

TEST(HashIds, KpathIdentityAndRelabelKeepRoundTotals) {
  const gf::GFSmall f(5);
  const Graph g = hash_id_graph();
  const auto id = identity_ids(g.num_vertices());
  const auto r = relabel(g, 17);
  for (Kernel kernel : kBothKernels)
    for (int k = 3; k <= 5; ++k) {
      const DetectOptions o = hash_id_opts(k, kernel);
      const auto plain = detect_kpath_seq(g, o, f);
      EXPECT_EQ(detect_kpath_seq(g, o, f, id).round_totals,
                plain.round_totals);
      EXPECT_EQ(detect_kpath_seq(r.graph, o, f, r.inverse).round_totals,
                plain.round_totals)
          << "k=" << k;
      EXPECT_NE(detect_kpath_seq(r.graph, o, f).round_totals,
                plain.round_totals)
          << "relabelling without ids must change the hashes";
    }
}

TEST(HashIds, KtreeIdentityAndRelabelKeepRoundTotals) {
  const gf::GFSmall f(5);
  const Graph g = hash_id_graph();
  const auto id = identity_ids(g.num_vertices());
  const auto r = relabel(g, 18);
  const TreeDecomposition td(graph::star_graph(4), 0);
  for (Kernel kernel : kBothKernels) {
    const DetectOptions o = hash_id_opts(td.k(), kernel);
    const auto plain = detect_ktree_seq(g, td, o, f);
    EXPECT_EQ(detect_ktree_seq(g, td, o, f, id).round_totals,
              plain.round_totals);
    EXPECT_EQ(detect_ktree_seq(r.graph, td, o, f, r.inverse).round_totals,
              plain.round_totals);
  }
}

TEST(HashIds, MotifIdentityAndRelabelKeepRoundTotals) {
  const gf::GFSmall f(5);
  const Graph g = hash_id_graph();
  const auto id = identity_ids(g.num_vertices());
  const auto r = relabel(g, 19);
  std::vector<std::uint32_t> colors(g.num_vertices());
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) colors[v] = v % 3;
  const std::vector<std::uint32_t> motif{0, 1, 1, 2};
  for (Kernel kernel : kBothKernels) {
    const DetectOptions o = hash_id_opts(4, kernel);
    const auto plain = detect_motif_seq(g, colors, motif, o, f);
    EXPECT_EQ(detect_motif_seq(g, colors, motif, o, f, id).round_totals,
              plain.round_totals);
    EXPECT_EQ(detect_motif_seq(r.graph, r.carry(colors), motif, o, f,
                               r.inverse)
                  .round_totals,
              plain.round_totals);
  }
}

TEST(HashIds, ScanIdentityAndRelabelKeepTheTable) {
  const gf::GFSmall f(5);
  const Graph g = hash_id_graph();
  const auto id = identity_ids(g.num_vertices());
  const auto r = relabel(g, 20);
  std::vector<std::uint32_t> w(g.num_vertices());
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) w[v] = (v * 7) % 4;
  for (Kernel kernel : kBothKernels) {
    ScanOptions o;
    o.k = 4;
    o.seed = 33;
    o.max_rounds = 2;  // few rounds: some true cells stay unset
    o.kernel = kernel;
    const auto plain = detect_scan_seq(g, w, o, f);
    EXPECT_EQ(detect_scan_seq(g, w, o, f, id).feasible, plain.feasible);
    EXPECT_EQ(detect_scan_seq(r.graph, r.carry(w), o, f, r.inverse).feasible,
              plain.feasible);
  }
}

TEST(HashIds, RejectsAMapOfTheWrongSize) {
  const gf::GF256 f;
  const Graph g = graph::path_graph(4);
  const std::vector<graph::VertexId> short_ids{0, 1, 2};
  EXPECT_THROW((void)detect_kpath_seq(g, opts(3), f, short_ids),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// The component pass the witness peel restricts its oracle with
// ---------------------------------------------------------------------------

TEST(ComponentPass, EdgeCases) {
  // Components {0,1,2} (a path), {3,4}, {5,6,7} (a triangle) and the
  // isolated 8.
  graph::GraphBuilder b(9);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(3, 4);
  b.add_edge(5, 6);
  b.add_edge(6, 7);
  b.add_edge(5, 7);
  const Graph g = b.build();
  graph::ComponentPass pass(g);
  using Ids = std::vector<graph::VertexId>;
  // Empty keep: nothing survives, whatever k.
  for (std::size_t k : {1u, 3u}) {
    pass.run({}, k);
    EXPECT_TRUE(pass.vertices().empty());
    EXPECT_TRUE(pass.keep_index().empty());
  }
  // k = 1: every kept vertex, isolated or not, at its own index.
  pass.run({2, 4, 8}, 1);
  EXPECT_EQ(pass.vertices(), (Ids{2, 4, 8}));
  EXPECT_EQ(pass.keep_index(), (Ids{0, 1, 2}));
  // A component of exactly k survives; the smaller ones around it do not.
  pass.run({0, 1, 2, 3, 4, 8}, 3);
  EXPECT_EQ(pass.vertices(), (Ids{0, 1, 2}));
  EXPECT_EQ(pass.keep_index(), (Ids{0, 1, 2}));
  pass.run({3, 4, 5, 6, 7}, 3);
  EXPECT_EQ(pass.vertices(), (Ids{5, 6, 7}));
  EXPECT_EQ(pass.keep_index(), (Ids{2, 3, 4}));
  // Every component k - 1: the empty set.
  pass.run({0, 1, 3, 4, 5, 7}, 3);
  EXPECT_TRUE(pass.vertices().empty());
  EXPECT_TRUE(pass.keep_index().empty());
  // No small component: all of keep, at the identity indices.
  pass.run({0, 1, 2, 5, 6, 7}, 3);
  EXPECT_EQ(pass.vertices(), (Ids{0, 1, 2, 5, 6, 7}));
  EXPECT_EQ(pass.keep_index(), (Ids{0, 1, 2, 3, 4, 5}));
  // The pass only follows kept vertices, and reuses its scratch cleanly.
  pass.run({0, 2, 5, 6, 7}, 2);
  EXPECT_EQ(pass.vertices(), (Ids{5, 6, 7}));
  EXPECT_EQ(pass.keep_index(), (Ids{2, 3, 4}));
  // keep must be ascending and in range.
  EXPECT_THROW(pass.run({2, 1, 0}, 2), std::invalid_argument);
  EXPECT_THROW(pass.run({0, 9}, 2), std::invalid_argument);
  EXPECT_THROW(pass.run({0, 1}, 0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// The sequential round driver: every detector runs the engine's phase
// bodies on a one-part view, in phases of min(2^k, 64) iterations
// ---------------------------------------------------------------------------

/// Sizes that cover a batch under 8 lanes (k = 1, 2), exactly 8 and 64
/// lanes (k = 3, 6) and more than one phase (k = 7, 9).
constexpr int kDriverKs[] = {1, 2, 3, 6, 7, 9};

/// Small graphs of mixed density, and a star (no path beyond 3 vertices):
/// every family meets both answers.
std::vector<Graph> driver_graphs() {
  Xoshiro256 rng(2323);
  std::vector<Graph> gs{graph::star_graph(11)};
  for (const double p : {0.12, 0.22, 0.4})
    gs.push_back(graph::erdos_renyi_gnp(11, p, rng));
  return gs;
}

/// Every round runs, so the two kernels' round totals cover the budget.
DetectOptions driver_opts(int k, Kernel kernel, std::uint64_t seed) {
  DetectOptions o = opts(k, 1e-3, seed);
  o.early_exit = false;
  o.kernel = kernel;
  return o;
}

/// The run record of one sequential run: every round, every iteration.
void expect_full_record(const DetectResult& r, const DetectOptions& o,
                        int k) {
  EXPECT_EQ(r.rounds_run, o.rounds());
  EXPECT_EQ(r.round_totals.size(), static_cast<std::size_t>(o.rounds()));
  EXPECT_EQ(r.iterations, static_cast<std::uint64_t>(o.rounds()) << k);
  int first = -1;
  for (std::size_t i = 0; i < r.round_totals.size() && first < 0; ++i)
    if (r.round_totals[i] != 0) first = static_cast<int>(i);
  EXPECT_EQ(r.found_round, first);
  EXPECT_EQ(r.found, first >= 0);
}

TEST(SeqDriver, KpathBothKernelsAgreeWithBruteForce) {
  const gf::GF256 f;
  int yes = 0, no = 0;
  for (const Graph& g : driver_graphs())
    for (const int k : kDriverKs) {
      const bool truth = has_kpath(g, k);
      const auto scalar = detect_kpath_seq(
          g, driver_opts(k, Kernel::kScalar, 70 + k), f);
      const auto sliced = detect_kpath_seq(
          g, driver_opts(k, Kernel::kBitsliced, 70 + k), f);
      EXPECT_EQ(scalar.round_totals, sliced.round_totals) << "k=" << k;
      EXPECT_EQ(scalar.found, truth) << "k=" << k;
      EXPECT_EQ(sliced.found, truth) << "k=" << k;
      if (k > 1) expect_full_record(sliced, driver_opts(k, {}, 0), k);
      truth ? ++yes : ++no;
    }
  EXPECT_GT(yes, 0);
  EXPECT_GT(no, 0);
}

TEST(SeqDriver, DirectedKpathBothKernelsAgreeWithBruteForce) {
  const gf::GF256 f;
  Xoshiro256 rng(4545);
  int yes = 0, no = 0;
  for (const graph::EdgeId m : {14u, 24u, 40u}) {
    const graph::DiGraph g = graph::random_digraph(11, m, rng);
    for (const int k : kDriverKs) {
      const bool truth = baseline::has_directed_kpath(g, k);
      const auto scalar = detect_kpath_directed_seq(
          g, driver_opts(k, Kernel::kScalar, 80 + k), f);
      const auto sliced = detect_kpath_directed_seq(
          g, driver_opts(k, Kernel::kBitsliced, 80 + k), f);
      EXPECT_EQ(scalar.round_totals, sliced.round_totals) << "k=" << k;
      EXPECT_EQ(scalar.found, truth) << "m=" << m << " k=" << k;
      EXPECT_EQ(sliced.found, truth) << "m=" << m << " k=" << k;
      truth ? ++yes : ++no;
    }
  }
  EXPECT_GT(yes, 0);
  EXPECT_GT(no, 0);
}

TEST(SeqDriver, KtreeBothKernelsAgreeWithBruteForce) {
  const gf::GF256 f;
  Xoshiro256 rng(5656);
  int yes = 0, no = 0;
  for (const Graph& g : driver_graphs())
    for (const int k : kDriverKs) {
      const Graph tmpl =
          graph::random_tree(static_cast<graph::VertexId>(k), rng);
      const TreeDecomposition td(tmpl, 0);
      const bool truth = baseline::has_tree_embedding(g, tmpl);
      const auto o_scalar = driver_opts(k, Kernel::kScalar, 90 + k);
      const auto scalar = detect_ktree_seq(g, td, o_scalar, f);
      const auto sliced = detect_ktree_seq(
          g, td, driver_opts(k, Kernel::kBitsliced, 90 + k), f);
      EXPECT_EQ(scalar.round_totals, sliced.round_totals) << "k=" << k;
      EXPECT_EQ(scalar.found, truth) << "k=" << k;
      EXPECT_EQ(sliced.found, truth) << "k=" << k;
      expect_full_record(scalar, o_scalar, k);
      truth ? ++yes : ++no;
    }
  EXPECT_GT(yes, 0);
  EXPECT_GT(no, 0);
}

TEST(SeqDriver, MotifBothKernelsAgreeWithBruteForce) {
  const gf::GF256 f;
  Xoshiro256 rng(6767);
  int yes = 0, no = 0;
  for (const Graph& g : driver_graphs()) {
    std::vector<std::uint32_t> colors(g.num_vertices());
    for (auto& c : colors) c = static_cast<std::uint32_t>(rng.below(3));
    for (const int k : kDriverKs) {
      std::vector<std::uint32_t> motif;
      for (int s = 0; s < k; ++s)
        motif.push_back(static_cast<std::uint32_t>(rng.below(3)));
      const bool truth = baseline::has_motif(g, colors, motif);
      const auto o_sliced = driver_opts(k, Kernel::kBitsliced, 100 + k);
      const auto scalar = detect_motif_seq(
          g, colors, motif, driver_opts(k, Kernel::kScalar, 100 + k), f);
      const auto sliced = detect_motif_seq(g, colors, motif, o_sliced, f);
      EXPECT_EQ(scalar.round_totals, sliced.round_totals) << "k=" << k;
      EXPECT_EQ(scalar.found, truth) << "k=" << k;
      EXPECT_EQ(sliced.found, truth) << "k=" << k;
      expect_full_record(sliced, o_sliced, k);
      truth ? ++yes : ++no;
    }
  }
  EXPECT_GT(yes, 0);
  EXPECT_GT(no, 0);
}

/// Weights with a short axis (two vertices of weight 1, the rest 0), so the
/// scalar tables stay cheap at k = 9.
std::vector<std::uint32_t> driver_weights(graph::VertexId n) {
  std::vector<std::uint32_t> w(n, 0);
  w[1] = w[n - 2] = 1;
  return w;
}

TEST(SeqDriver, ScanBothKernelsAgreeWithBruteForce) {
  const gf::GF256 f;
  for (const Graph& g : driver_graphs()) {
    const auto w = driver_weights(g.num_vertices());
    for (const int k : kDriverKs) {
      const auto truth = baseline::connected_subgraph_feasibility(g, w, k);
      ScanOptions o;
      o.k = k;
      o.epsilon = 1e-3;
      o.seed = 110 + static_cast<std::uint64_t>(k);
      o.kernel = Kernel::kScalar;
      const auto scalar = detect_scan_seq(g, w, o, f);
      o.kernel = Kernel::kBitsliced;
      const auto sliced = detect_scan_seq(g, w, o, f);
      EXPECT_EQ(scalar.feasible, sliced.feasible) << "k=" << k;
      EXPECT_EQ(scalar.max_weight, sliced.max_weight) << "k=" << k;
      for (int j = 1; j <= k; ++j)
        for (std::uint32_t z = 0; z <= sliced.max_weight; ++z)
          EXPECT_EQ(sliced.at(j, z),
                    z < truth[static_cast<std::size_t>(j)].size() &&
                        truth[static_cast<std::size_t>(j)][z])
              << "k=" << k << " j=" << j << " z=" << z;
    }
  }
}

/// Phase batches that put every plane word under the weighted bodies at
/// k = 7 (128 iterations): uint8_t, uint16_t, uint32_t, uint64_t and two
/// uint64_t blocks. Other sizes run one batch of min(2^k, 64).
constexpr std::uint32_t kPlaneWordN2[] = {4, 16, 32, 64, 128};

TEST(SeqDriver, WeightedRecurrencesBothKernelsAgreeWithBruteForce) {
  // Weighted k-path runs the k-path body at width > 1 and scan2d the scan
  // body at bw > 1. Both kernels give one table: weighted k-path
  // sequentially (opt.kernel) and both on the engine (MidasOptions::kernel)
  // at every plane word, and the tables equal brute force.
  const gf::GF256 f;
  for (const Graph& g : driver_graphs()) {
    const graph::VertexId n = g.num_vertices();
    const auto w = driver_weights(n);
    std::vector<std::uint32_t> b(n, 0);
    b[0] = b[n / 2] = 1;
    const auto part = partition::block_partition(g, 2);
    for (const int k : kDriverKs) {
      const auto o_scalar = driver_opts(k, Kernel::kScalar, 120 + k);
      const auto scalar = max_weight_kpath_seq(g, w, k, o_scalar, f);
      const auto sliced = max_weight_kpath_seq(
          g, w, k, driver_opts(k, Kernel::kBitsliced, 120 + k), f);
      EXPECT_EQ(scalar.feasible_weight, sliced.feasible_weight) << "k=" << k;
      EXPECT_EQ(sliced.max_weight, baseline::max_weight_kpath(g, w, k))
          << "k=" << k;

      // scan2d: every connected set of <= k vertices under the baseline
      // cap marks its (baseline, weight) cell.
      Scan2DOptions s;
      s.max_size = k;
      s.max_baseline = 1;
      s.epsilon = 1e-3;
      s.seed = 130 + static_cast<std::uint64_t>(k);
      const auto table = detect_scan2d_seq(g, b, w, s, f);
      std::vector<std::vector<bool>> truth(
          s.max_baseline + 1, std::vector<bool>(table.max_weight + 1));
      baseline::enumerate_connected_subsets(
          g, k, [&](const std::vector<graph::VertexId>& set) {
            std::uint32_t by = 0, wz = 0;
            for (graph::VertexId v : set) {
              by += b[v];
              wz += w[v];
            }
            if (by <= s.max_baseline) truth[by][wz] = true;
          });
      EXPECT_EQ(table.feasible, truth) << "k=" << k;

      for (const std::uint32_t n2 : kPlaneWordN2) {
        if (k != 7 && n2 != 64) continue;
        MidasOptions m;
        m.k = k;
        m.epsilon = o_scalar.epsilon;
        m.seed = o_scalar.seed;
        m.early_exit = false;
        m.n_ranks = 2;
        m.n1 = 2;
        m.n2 = n2;
        for (const Kernel kernel : {Kernel::kScalar, Kernel::kBitsliced}) {
          m.kernel = kernel;
          EXPECT_EQ(midas_weighted_kpath(g, part, w, m, f).feasible_weight,
                    scalar.feasible_weight)
              << "k=" << k << " n2=" << n2;
          EXPECT_EQ(midas_scan2d(g, part, b, w, s, m, f).feasible, truth)
              << "k=" << k << " n2=" << n2;
        }
      }
    }
  }
}

TEST(SeqDriver, FieldsWithoutPlanesRunTheScalarBody) {
  // GF(2^64) has no bit-sliced twin: kAuto runs the scalar body, an
  // explicit bit-sliced request is an options error.
  const gf::GF64 f;
  int yes = 0;
  for (const Graph& g : driver_graphs())
    for (const int k : kDriverKs) {
      const DetectOptions o = driver_opts(k, Kernel::kAuto, 140 + k);
      const auto r = detect_kpath_seq(g, o, f);
      EXPECT_EQ(r.found, has_kpath(g, k)) << "k=" << k;
      if (k > 1) expect_full_record(r, o, k);
      yes += r.found ? 1 : 0;
    }
  EXPECT_GT(yes, 0);
  const Graph g = graph::path_graph(5);
  EXPECT_STREQ(kernel_name(f, Kernel::kAuto), "scalar");
  EXPECT_THROW((void)detect_kpath_seq(g, driver_opts(3, Kernel::kBitsliced, 1),
                                      f),
               InvalidOptionsError);
  const TreeDecomposition td(graph::path_graph(3), 0);
  EXPECT_THROW((void)detect_ktree_seq(
                   g, td, driver_opts(3, Kernel::kBitsliced, 1), f),
               InvalidOptionsError);
}

// ---------------------------------------------------------------------------
// The one-part view the sequential detectors seat their rank on
// ---------------------------------------------------------------------------

TEST(InducedView, IdentityEqualsOnePartPartViews) {
  Xoshiro256 rng(7878);
  for (const double p : {0.0, 0.1, 0.3}) {
    const Graph g = graph::erdos_renyi_gnp(40, p, rng);
    const std::vector<graph::VertexId> all = identity_ids(g.num_vertices());
    const partition::Partition one{1, std::vector<int>(g.num_vertices(), 0)};
    const auto want = partition::build_part_views(g, one).at(0);
    for (const auto& got :
         {partition::induced_view(g, all), partition::induced_view(g, all, all)}) {
      EXPECT_EQ(got.part, want.part);
      EXPECT_EQ(got.vertices, want.vertices);
      EXPECT_EQ(got.ghosts, want.ghosts);
      EXPECT_EQ(got.adj_offsets, want.adj_offsets);
      ASSERT_EQ(got.adj.size(), want.adj.size());
      for (std::size_t e = 0; e < got.adj.size(); ++e)
        EXPECT_EQ(got.adj[e].packed, want.adj[e].packed) << "e=" << e;
      EXPECT_EQ(got.send_to, want.send_to);
      EXPECT_EQ(got.recv_from, want.recv_from);
      EXPECT_EQ(got.boundary, want.boundary);
    }
  }
}

TEST(InducedView, SubsetAdjacencyEqualsInducedSubgraph) {
  Xoshiro256 rng(8989);
  const Graph g = graph::erdos_renyi_gnp(50, 0.15, rng);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<graph::VertexId> keep, ids;
    for (graph::VertexId v = 0; v < g.num_vertices(); ++v)
      if (rng.below(3) != 0) {
        keep.push_back(v);
        ids.push_back(1000 + v * 7);
      }
    const auto sub = graph::induced_subgraph(g, keep);
    const auto view = partition::induced_view(g, keep, ids);
    EXPECT_EQ(view.vertices, ids);
    EXPECT_TRUE(view.ghosts.empty());
    ASSERT_EQ(view.num_local(), sub.graph.num_vertices());
    for (std::uint32_t li = 0; li < view.num_local(); ++li) {
      std::vector<graph::VertexId> nbrs;
      for (auto e = view.adj_offsets[li]; e < view.adj_offsets[li + 1]; ++e) {
        EXPECT_FALSE(view.adj[e].is_ghost());
        nbrs.push_back(view.adj[e].index());
      }
      const auto want = sub.graph.neighbors(li);
      EXPECT_EQ(nbrs, std::vector<graph::VertexId>(want.begin(), want.end()))
          << "trial=" << trial << " li=" << li;
    }
  }
}

TEST(InducedView, RejectsUnsortedVerticesAndWrongIdCounts) {
  const Graph g = graph::path_graph(5);
  using Ids = std::vector<graph::VertexId>;
  EXPECT_THROW((void)partition::induced_view(g, Ids{2, 1}),
               std::invalid_argument);
  EXPECT_THROW((void)partition::induced_view(g, Ids{1, 1}),
               std::invalid_argument);
  EXPECT_THROW((void)partition::induced_view(g, Ids{0, 5}),
               std::invalid_argument);
  const Ids one{9};
  EXPECT_THROW((void)partition::induced_view(g, Ids{0, 1}, one),
               std::invalid_argument);
}

}  // namespace
}  // namespace midas::core
