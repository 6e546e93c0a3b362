// Parallel MIDAS vs the sequential detectors and brute force.
//
// Because all randomness is hash-derived from (seed, round, vertex) and the
// final combine is an XOR allreduce, the parallel engines must agree with
// the sequential detectors *bit for bit* on every (N, N1, N2) configuration
// — these tests sweep the configuration space and demand exact agreement of
// outcomes (found / not found, and the feasibility table for scan).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "baseline/brute_force.hpp"
#include "core/detect_par.hpp"
#include "core/detect_seq.hpp"
#include "core/errors.hpp"
#include "core/scan2d.hpp"
#include "fixtures.hpp"
#include "gf/gf256.hpp"
#include "gf/gfsmall.hpp"
#include "graph/digraph.hpp"
#include "graph/generators.hpp"
#include "partition/multilevel.hpp"
#include "partition/partition.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/fault.hpp"
#include "util/rng.hpp"

namespace midas::core {
namespace {

using graph::Graph;

MidasOptions par_opts(int k, int n_ranks, int n1, std::uint32_t n2,
                      std::uint64_t seed = 7, double eps = 1e-3) {
  MidasOptions o;
  o.k = k;
  o.epsilon = eps;
  o.seed = seed;
  o.n_ranks = n_ranks;
  o.n1 = n1;
  o.n2 = n2;
  return o;
}

DetectOptions seq_opts(int k, std::uint64_t seed = 7, double eps = 1e-3) {
  DetectOptions o;
  o.k = k;
  o.epsilon = eps;
  o.seed = seed;
  return o;
}

// (N, N1, N2) sweep for the configuration-equivalence tests.
class ParConfig
    : public ::testing::TestWithParam<std::tuple<int, int, std::uint32_t>> {};

TEST_P(ParConfig, KPathMatchesSequentialBitForBit) {
  const auto [n_ranks, n1, n2] = GetParam();
  gf::GF256 f;
  Xoshiro256 rng(4242);
  for (int trial = 0; trial < 6; ++trial) {
    const graph::VertexId n = 10 + static_cast<graph::VertexId>(rng.below(8));
    const Graph g = graph::erdos_renyi_gnp(n, 0.18, rng);
    const int k = 4 + static_cast<int>(rng.below(2));
    const std::uint64_t seed = 100 + trial;

    auto seq = detect_kpath_seq(g, seq_opts(k, seed), f);
    auto part = partition::block_partition(g, n1);
    auto par = midas_kpath(g, part, par_opts(k, n_ranks, n1, n2, seed), f);
    EXPECT_EQ(par.found, seq.found) << "trial=" << trial << " k=" << k;
    if (seq.found) {
      EXPECT_EQ(par.found_round, seq.found_round)
          << "same seed must find in the same round";
    }
  }
}

TEST_P(ParConfig, KTreeMatchesSequential) {
  const auto [n_ranks, n1, n2] = GetParam();
  gf::GF256 f;
  Xoshiro256 rng(777);
  for (int trial = 0; trial < 4; ++trial) {
    const int k = 4 + static_cast<int>(rng.below(2));
    const Graph tmpl =
        graph::random_tree(static_cast<graph::VertexId>(k), rng);
    TreeDecomposition td(tmpl, 0);
    const graph::VertexId n = 10 + static_cast<graph::VertexId>(rng.below(6));
    const Graph g = graph::erdos_renyi_gnp(n, 0.2, rng);
    const std::uint64_t seed = 900 + trial;

    auto seq = detect_ktree_seq(g, td, seq_opts(k, seed), f);
    auto part = partition::block_partition(g, n1);
    MidasOptions o = par_opts(k, n_ranks, n1, n2, seed);
    auto par = midas_ktree(g, part, td, o, f);
    EXPECT_EQ(par.found, seq.found) << "trial=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ParConfig,
    ::testing::Values(std::make_tuple(1, 1, 1),     // sequential degenerate
                      std::make_tuple(2, 1, 4),     // pure phase parallelism
                      std::make_tuple(2, 2, 1),     // pure graph parallelism
                      std::make_tuple(4, 2, 2),     // mixed, small batch
                      std::make_tuple(4, 2, 16),    // mixed, large batch
                      std::make_tuple(4, 4, 8),     // N1 = N
                      std::make_tuple(8, 2, 32),    // many groups
                      std::make_tuple(8, 4, 1000),  // N2 > 2^k (clamped)
                      std::make_tuple(6, 3, 5)));   // non-power-of-two

TEST(ParKPath, AgreesWithBruteForceOnRandomSweep) {
  gf::GF256 f;
  Xoshiro256 rng(31337);
  int positives = 0, negatives = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const graph::VertexId n = 9 + static_cast<graph::VertexId>(rng.below(6));
    const Graph g = graph::erdos_renyi_gnp(n, 0.06 + rng.uniform() * 0.14,
                                           rng);
    const int k = 4;
    const bool truth = baseline::has_kpath(g, k);
    auto part = partition::block_partition(g, 2);
    auto res = midas_kpath(
        g, part, par_opts(k, 4, 2, 4, 555 + trial, 1e-4), f);
    EXPECT_EQ(res.found, truth) << "trial=" << trial;
    truth ? ++positives : ++negatives;
  }
  EXPECT_GT(positives, 2);
  EXPECT_GT(negatives, 2);
}

TEST(ParKPath, AllPartitionersGiveSameAnswer) {
  gf::GF256 f;
  const Graph g = fixtures::gnp(24, 0.15, 2024);
  const int k = 5;
  auto seq = detect_kpath_seq(g, seq_opts(k, 42), f);
  for (int which = 0; which < 4; ++which) {
    partition::Partition part;
    Xoshiro256 prng(7);
    switch (which) {
      case 0: part = partition::block_partition(g, 3); break;
      case 1: part = partition::random_partition(g, 3, prng); break;
      case 2: part = partition::bfs_partition(g, 3); break;
      default: part = partition::ldg_partition(g, 3); break;
    }
    auto res = midas_kpath(g, part, par_opts(k, 3, 3, 8, 42), f);
    EXPECT_EQ(res.found, seq.found) << "partitioner " << which;
  }
}

TEST(ParKPath, StatsReflectConfiguration) {
  gf::GF256 f;
  const Graph g = fixtures::gnp(32, 0.2, 5);
  const int k = 6;
  auto part = partition::block_partition(g, 4);

  // Batching: N2 = 1 sends ~N2x more messages than N2 = 16 for the same
  // total byte volume (modulo the final short phase).
  MidasOptions small = par_opts(k, 4, 4, 1, 11, 1e-2);
  small.early_exit = false;
  MidasOptions big = par_opts(k, 4, 4, 16, 11, 1e-2);
  big.early_exit = false;
  auto res_small = midas_kpath(g, part, small, f);
  auto res_big = midas_kpath(g, part, big, f);
  EXPECT_GT(res_small.total_stats.messages_sent,
            4 * res_big.total_stats.messages_sent);
  EXPECT_EQ(res_small.total_stats.bytes_sent,
            res_big.total_stats.bytes_sent);
  // Modeled time must benefit from batching (alpha amortization).
  EXPECT_GT(res_small.vtime, res_big.vtime);
}

TEST(ParKPath, VirtualTimeDropsWithMoreRanks) {
  gf::GF256 f;
  const Graph g = fixtures::gnp(64, 0.1, 6);
  const int k = 6;
  auto part1 = partition::block_partition(g, 1);
  MidasOptions o1 = par_opts(k, 1, 1, 8, 3, 1e-2);
  o1.early_exit = false;
  auto r1 = midas_kpath(g, part1, o1, f);
  MidasOptions o4 = par_opts(k, 4, 1, 8, 3, 1e-2);
  o4.early_exit = false;
  auto r4 = midas_kpath(g, part1, o4, f);  // 4 phase groups, same partition
  EXPECT_LT(r4.vtime, r1.vtime)
      << "pure iteration parallelism must shrink the modeled makespan";
}

TEST(ParScan, MatchesSequentialTableExactly) {
  gf::GF256 f;
  Xoshiro256 rng(909);
  for (int trial = 0; trial < 4; ++trial) {
    const graph::VertexId n = 8 + static_cast<graph::VertexId>(rng.below(4));
    const Graph g = graph::erdos_renyi_gnp(n, 0.25, rng);
    std::vector<std::uint32_t> w(n);
    for (auto& x : w) x = static_cast<std::uint32_t>(rng.below(3));
    const int k = 4;
    ScanOptions so;
    so.k = k;
    so.epsilon = 1e-3;
    so.seed = 60 + trial;
    const auto seq_table = detect_scan_seq(g, w, so, f);

    auto part = partition::block_partition(g, 2);
    MidasOptions o = par_opts(k, 4, 2, 4, 60 + trial);
    auto par = midas_scan(g, part, w, o, f);
    ASSERT_EQ(par.table.max_weight, seq_table.max_weight);
    for (int j = 1; j <= k; ++j)
      for (std::uint32_t z = 0; z <= seq_table.max_weight; ++z)
        EXPECT_EQ(par.table.at(j, z), seq_table.at(j, z))
            << "trial=" << trial << " j=" << j << " z=" << z;
  }
}

TEST(ParScan, AgreesWithBruteForce) {
  gf::GF256 f;
  Xoshiro256 rng(1212);
  const graph::VertexId n = 9;
  const Graph g = fixtures::gnp(n, 0.3, 1212);
  std::vector<std::uint32_t> w(n);
  for (auto& x : w) x = static_cast<std::uint32_t>(rng.below(3));
  const int k = 4;
  const auto truth = baseline::connected_subgraph_feasibility(g, w, k);
  auto part = partition::block_partition(g, 3);
  auto par = midas_scan(g, part, w, par_opts(k, 3, 3, 8, 99, 1e-4), f);
  for (int j = 1; j <= k; ++j)
    for (std::uint32_t z = 0; z <= par.table.max_weight; ++z) {
      const bool expected = z < truth[static_cast<std::size_t>(j)].size() &&
                            truth[static_cast<std::size_t>(j)][z];
      EXPECT_EQ(par.table.at(j, z), expected) << "j=" << j << " z=" << z;
    }
}

TEST(ParKPath, WiderFieldsTravelThroughHalosCorrectly) {
  // All other parallel tests use the 1-byte GF(2^8); this pins the halo
  // packing/unpacking for 2-byte field values (GFSmall) against both the
  // sequential detector and brute force.
  gf::GFSmall f(12);
  Xoshiro256 rng(8787);
  for (int trial = 0; trial < 6; ++trial) {
    const graph::VertexId n = 10 + static_cast<graph::VertexId>(rng.below(6));
    const Graph g = graph::erdos_renyi_gnp(n, 0.16, rng);
    const int k = 4;
    const std::uint64_t seed = 700 + trial;
    const auto seq = detect_kpath_seq(g, seq_opts(k, seed), f);
    const auto part = partition::bfs_partition(g, 3);
    const auto par = midas_kpath(g, part, par_opts(k, 6, 3, 4, seed), f);
    EXPECT_EQ(par.found, seq.found) << "trial=" << trial;
    EXPECT_EQ(par.found, baseline::has_kpath(g, k)) << "trial=" << trial;
  }
}

TEST(ParScan, MultilevelPartitionGivesSameTable) {
  gf::GF256 f;
  Xoshiro256 rng(6161);
  const Graph g = fixtures::gnp(14, 0.25, 6161);
  std::vector<std::uint32_t> w(g.num_vertices());
  for (auto& x : w) x = static_cast<std::uint32_t>(rng.below(3));
  ScanOptions so;
  so.k = 4;
  so.epsilon = 1e-3;
  so.seed = 31;
  const auto seq_table = detect_scan_seq(g, w, so, f);
  const auto part = partition::multilevel_partition(g, 2);
  const auto par = midas_scan(g, part, w, par_opts(4, 4, 2, 4, 31), f);
  for (int j = 1; j <= 4; ++j)
    for (std::uint32_t z = 0; z <= seq_table.max_weight; ++z)
      EXPECT_EQ(par.table.at(j, z), seq_table.at(j, z))
          << "j=" << j << " z=" << z;
}

TEST(ParKPath, RejectsBadConfigurations) {
  gf::GF256 f;
  const Graph g = graph::path_graph(8);
  auto part = partition::block_partition(g, 2);
  // N1 does not divide N.
  EXPECT_THROW(midas_kpath(g, part, par_opts(4, 3, 2, 4), f),
               std::invalid_argument);
  // Partition arity mismatch.
  EXPECT_THROW(midas_kpath(g, part, par_opts(4, 4, 4, 4), f),
               std::invalid_argument);
}

TEST(ParWeighted, BitslicedKernelRunEqualsScalar) {
  // The weighted engine runs the k-path body at width max_weight + 1: an
  // explicit bit-sliced request runs its bit-sliced kernel, with the
  // scalar run's table, clock and traffic.
  gf::GF256 f;
  const Graph g = fixtures::gnp(10, 0.3, 17);
  Xoshiro256 rng(18);
  std::vector<std::uint32_t> w(g.num_vertices());
  for (auto& x : w) x = static_cast<std::uint32_t>(rng.below(3));
  const auto part = partition::block_partition(g, 2);
  MidasOptions o = par_opts(3, 4, 2, 4);
  o.max_rounds = 2;
  o.kernel = Kernel::kScalar;
  const auto want = midas_weighted_kpath(g, part, w, o, f);
  o.kernel = Kernel::kBitsliced;
  const auto got = midas_weighted_kpath(g, part, w, o, f);
  EXPECT_EQ(got.feasible_weight, want.feasible_weight);
  EXPECT_EQ(got.max_weight, want.max_weight);
  EXPECT_EQ(got.vtime, want.vtime);
  EXPECT_EQ(got.total_stats.messages_sent, want.total_stats.messages_sent);
  EXPECT_EQ(got.total_stats.bytes_sent, want.total_stats.bytes_sent);
}

// ---------------------------------------------------------------------------
// Golden record: clean runs of every distributed engine, digested
// ---------------------------------------------------------------------------

/// Integer-only golden input, hashed with FNV-1a. Doubles (vclocks, vtime)
/// are left out on purpose: FP contraction may differ across compilers.
struct Golden {
  std::vector<std::uint64_t> words;

  void add(std::uint64_t w) { words.push_back(w); }
  void add_bytes(const std::vector<std::uint8_t>& b) {
    add(b.size());
    for (const auto x : b) add(x);
  }
  void add_stats(const runtime::CommStats& s) {
    add(s.messages_sent);
    add(s.bytes_sent);
    add(s.messages_received);
    add(s.bytes_received);
  }
  void add_result(const MidasResult& r) {
    add(r.found ? 1 : 0);
    add(static_cast<std::uint64_t>(r.rounds_run));
    add(static_cast<std::uint64_t>(static_cast<std::int64_t>(r.found_round)));
    add_stats(r.total_stats);
  }
  void add_table(const std::vector<std::vector<bool>>& t) {
    for (const auto& row : t) {
      add(row.size());
      for (const bool b : row) add(b ? 1 : 0);
    }
  }
  /// Driver state, per-rank accumulators and per-rank message and byte
  /// counts of every snapshot in `dir`, oldest first.
  void add_snapshots(const std::string& dir) {
    runtime::CheckpointStore store(dir);
    auto files = store.snapshots();
    std::reverse(files.begin(), files.end());
    add(files.size());
    for (const auto& file : files) {
      const auto ck = runtime::CheckpointStore::load_file(file);
      add(ck.next_round);
      add(ck.phase_waves_done);
      add_bytes(ck.driver_state);
      add(ck.accum.size());
      for (const auto& a : ck.accum) add_bytes(a);
      add(ck.stats.size());
      for (const auto& s : ck.stats) add_stats(s);
    }
  }
  [[nodiscard]] std::uint64_t digest() const {
    return runtime::fnv1a(
        std::as_bytes(std::span<const std::uint64_t>(words)));
  }
};

/// Empty snapshot directory for one golden run.
std::string golden_dir(const std::string& name) {
  const auto p = std::filesystem::temp_directory_path() /
                 ("midas_test_golden_" + name);
  std::filesystem::remove_all(p);
  std::filesystem::create_directories(p);
  return p.string();
}

/// Four ranks in two phase groups, three full rounds, a snapshot after
/// every round.
MidasOptions golden_opts(int k, std::uint64_t seed, Kernel kernel,
                         const std::string& dir) {
  MidasOptions o = par_opts(k, 4, 2, 4, seed);
  o.max_rounds = 3;
  o.early_exit = false;
  o.kernel = kernel;
  o.checkpoint.dir = dir;
  o.checkpoint.every_rounds = 1;
  o.checkpoint.keep = 64;
  return o;
}

// Recorded values (FNV-1a of the integer quantities above), taken from
// the per-engine drivers before they shared one phase-engine skeleton:
//   kpath      0xb7c50f9068060384  (both kernels)
//   kpath_dir  0x15c6e657f0eb64a4  (both kernels)
//   ktree      0x36aab440bc12b384  (both kernels)
//   scan       0x98c013764a38db73  (both kernels)
//   motif      0x1f52e7096b278c54  (both kernels)
//   weighted   0x28270618c1106bc9  (both kernels)
//   scan2d     0x25864e281e85bb64  (both kernels; table only)
TEST(EngineGolden, CleanRunsMatchTheRecordedDigests) {
  const std::map<std::string, std::uint64_t> expected = {
      {"kpath/scalar", 0xb7c50f9068060384ULL},
      {"kpath/bitsliced", 0xb7c50f9068060384ULL},
      {"kpath_dir/scalar", 0x15c6e657f0eb64a4ULL},
      {"kpath_dir/bitsliced", 0x15c6e657f0eb64a4ULL},
      {"ktree/scalar", 0x36aab440bc12b384ULL},
      {"ktree/bitsliced", 0x36aab440bc12b384ULL},
      {"scan/scalar", 0x98c013764a38db73ULL},
      {"scan/bitsliced", 0x98c013764a38db73ULL},
      {"motif/scalar", 0x1f52e7096b278c54ULL},
      {"motif/bitsliced", 0x1f52e7096b278c54ULL},
      {"weighted/scalar", 0x28270618c1106bc9ULL},
      {"weighted/bitsliced", 0x28270618c1106bc9ULL},
      {"scan2d/scalar", 0x25864e281e85bb64ULL},
      {"scan2d/bitsliced", 0x25864e281e85bb64ULL},
  };
  gf::GF256 f;
  std::map<std::string, std::uint64_t> got;

  const Graph g = fixtures::gnp(24, 0.25, 2024);
  const auto part = partition::block_partition(g, 2);
  Xoshiro256 rng(4242);
  const graph::DiGraph dg = graph::random_digraph(24, 60, rng);
  partition::Partition halves{2, std::vector<int>(dg.num_vertices())};
  for (graph::VertexId v = 0; v < dg.num_vertices(); ++v)
    halves.owner[v] = v < dg.num_vertices() / 2 ? 0 : 1;
  const TreeDecomposition td(graph::random_tree(5, rng), 0);
  const Graph sg = fixtures::gnp(12, 0.25, 606);
  std::vector<std::uint32_t> w(sg.num_vertices());
  for (auto& x : w) x = static_cast<std::uint32_t>(rng.below(3));
  const auto spart = partition::block_partition(sg, 2);
  const Graph mg = fixtures::gnp(16, 0.3, 77);
  const auto colors = fixtures::draw_colors(16, 2, 5);
  const std::vector<std::uint32_t> motif{0, 1, 0};
  const auto mpart = partition::block_partition(mg, 2);
  std::vector<std::uint32_t> base(sg.num_vertices());
  for (auto& x : base) x = 1 + static_cast<std::uint32_t>(rng.below(2));

  for (const Kernel kernel : {Kernel::kScalar, Kernel::kBitsliced}) {
    const std::string kn =
        kernel == Kernel::kScalar ? "/scalar" : "/bitsliced";
    {
      Golden d;
      const auto o = golden_opts(4, 77, kernel, golden_dir("kpath" + kn));
      d.add_result(midas_kpath(g, part, o, f));
      d.add_snapshots(o.checkpoint.dir);
      got["kpath" + kn] = d.digest();
    }
    {
      Golden d;
      const auto o = golden_opts(4, 78, kernel, golden_dir("kdir" + kn));
      d.add_result(midas_kpath_directed(dg, halves, o, f));
      d.add_snapshots(o.checkpoint.dir);
      got["kpath_dir" + kn] = d.digest();
    }
    {
      Golden d;
      const auto o = golden_opts(5, 79, kernel, golden_dir("ktree" + kn));
      d.add_result(midas_ktree(g, part, td, o, f));
      d.add_snapshots(o.checkpoint.dir);
      got["ktree" + kn] = d.digest();
    }
    {
      Golden d;
      const auto o = golden_opts(4, 80, kernel, golden_dir("scan" + kn));
      const auto r = midas_scan(sg, spart, w, o, f);
      d.add_table(r.table.feasible);
      d.add_stats(r.total_stats);
      d.add_snapshots(o.checkpoint.dir);
      got["scan" + kn] = d.digest();
    }
    {
      Golden d;
      const auto o = golden_opts(3, 81, kernel, golden_dir("motif" + kn));
      d.add_result(midas_motif(mg, mpart, colors, motif, o, f));
      d.add_snapshots(o.checkpoint.dir);
      got["motif" + kn] = d.digest();
    }
    {
      Golden d;
      const auto o = golden_opts(4, 82, kernel, golden_dir("weighted" + kn));
      const auto r = midas_weighted_kpath(sg, spart, w, o, f);
      d.add_table({r.feasible_weight});
      d.add(r.max_weight.value_or(~0u));
      d.add_stats(r.total_stats);
      d.add_snapshots(o.checkpoint.dir);
      got["weighted" + kn] = d.digest();
    }
    {
      Golden d;
      Scan2DOptions so;
      so.max_size = 3;
      so.max_baseline = 5;
      so.seed = 83;
      so.max_rounds = 3;
      MidasOptions o = par_opts(3, 4, 2, 2);
      o.kernel = kernel;
      d.add_table(midas_scan2d(sg, spart, base, w, so, o, f).feasible);
      got["scan2d" + kn] = d.digest();
    }
  }

  for (const auto& [name, value] : expected)
    EXPECT_EQ(got[name], value)
        << name << " digest 0x" << std::hex << got[name];
}

}  // namespace
}  // namespace midas::core
