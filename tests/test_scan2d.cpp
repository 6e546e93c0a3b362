// Full Problem 2: two-axis (baseline, weight) feasibility with
// heterogeneous baselines, against exhaustive enumeration.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "baseline/brute_force.hpp"
#include "core/errors.hpp"
#include "core/scan2d.hpp"
#include "partition/partition.hpp"
#include "gf/gf256.hpp"
#include "graph/generators.hpp"
#include "runtime/checkpoint.hpp"
#include "scan/scan_statistics.hpp"
#include "util/rng.hpp"

namespace midas::core {
namespace {

/// Exhaustive (B, W) feasibility for connected subgraphs of size <= s_max
/// with B <= bcap.
std::vector<std::vector<bool>> brute_2d(
    const graph::Graph& g, const std::vector<std::uint32_t>& baseline,
    const std::vector<std::uint32_t>& weight, int s_max,
    std::uint32_t bcap, std::uint32_t wmax) {
  std::vector<std::vector<bool>> out(bcap + 1,
                                     std::vector<bool>(wmax + 1, false));
  baseline::enumerate_connected_subsets(
      g, s_max, [&](const std::vector<graph::VertexId>& subset) {
        std::uint32_t b = 0, w = 0;
        for (auto v : subset) {
          b += baseline[v];
          w += weight[v];
        }
        if (b <= bcap && w <= wmax) out[b][w] = true;
      });
  return out;
}

TEST(Scan2D, MatchesExhaustiveEnumeration) {
  gf::GF256 f;
  Xoshiro256 rng(31);
  for (int trial = 0; trial < 5; ++trial) {
    const graph::VertexId n = 7 + static_cast<graph::VertexId>(rng.below(3));
    const auto g = graph::erdos_renyi_gnp(n, 0.3, rng);
    std::vector<std::uint32_t> b(n), w(n);
    for (auto& x : b) x = 1 + static_cast<std::uint32_t>(rng.below(2));
    for (auto& x : w) x = static_cast<std::uint32_t>(rng.below(3));

    Scan2DOptions opt;
    opt.max_size = 3;
    opt.max_baseline = 5;
    opt.epsilon = 1e-4;
    opt.seed = 100 + trial;
    const auto table = detect_scan2d_seq(g, b, w, opt, f);
    const auto truth = brute_2d(g, b, w, opt.max_size, opt.max_baseline,
                                table.max_weight);
    for (std::uint32_t y = 0; y <= opt.max_baseline; ++y)
      for (std::uint32_t z = 0; z <= table.max_weight; ++z)
        EXPECT_EQ(table.at(y, z), truth[y][z])
            << "trial=" << trial << " B=" << y << " W=" << z;
  }
}

TEST(Scan2D, BaselineCapExcludesHeavyVertices) {
  gf::GF256 f;
  // Path 0-1-2; vertex 1 has baseline 10 > cap, so only {0}, {2} and no
  // multi-vertex subgraph through 1 fit.
  const auto g = graph::path_graph(3);
  const std::vector<std::uint32_t> b{1, 10, 1};
  const std::vector<std::uint32_t> w{2, 3, 4};
  Scan2DOptions opt;
  opt.max_size = 3;
  opt.max_baseline = 4;
  opt.epsilon = 1e-4;
  const auto table = detect_scan2d_seq(g, b, w, opt, f);
  EXPECT_TRUE(table.at(1, 2));   // {0}
  EXPECT_TRUE(table.at(1, 4));   // {2}
  EXPECT_FALSE(table.at(2, 6));  // {0,2} is disconnected
  for (std::uint32_t z = 0; z <= table.max_weight; ++z) {
    EXPECT_FALSE(table.at(2, z)) << "no connected pair fits the cap, z="
                                 << z;
  }
}

TEST(Scan2D, ParallelMatchesSequentialBitForBit) {
  gf::GF256 f;
  Xoshiro256 rng(41);
  for (int trial = 0; trial < 3; ++trial) {
    const graph::VertexId n = 8;
    const auto g = graph::erdos_renyi_gnp(n, 0.3, rng);
    std::vector<std::uint32_t> b(n), w(n);
    for (auto& x : b) x = 1 + static_cast<std::uint32_t>(rng.below(2));
    for (auto& x : w) x = static_cast<std::uint32_t>(rng.below(3));
    Scan2DOptions sopt;
    sopt.max_size = 3;
    sopt.max_baseline = 5;
    sopt.epsilon = 1e-3;
    sopt.seed = 200 + trial;
    const auto seq = detect_scan2d_seq(g, b, w, sopt, f);

    MidasOptions mopt;
    mopt.n_ranks = 4;
    mopt.n1 = 2;
    mopt.n2 = 2;
    const auto part = partition::block_partition(g, 2);
    const auto par = midas_scan2d(g, part, b, w, sopt, mopt, f);
    ASSERT_EQ(par.max_weight, seq.max_weight);
    for (std::uint32_t y = 0; y <= sopt.max_baseline; ++y)
      for (std::uint32_t z = 0; z <= seq.max_weight; ++z)
        EXPECT_EQ(par.at(y, z), seq.at(y, z))
            << "trial=" << trial << " B=" << y << " W=" << z;
  }
}

TEST(Scan2D, KulldorffWithRealBaselines) {
  // A high-event low-baseline cluster must beat a high-event
  // high-baseline one under Kulldorff (the statistic normalizes by B).
  graph::GraphBuilder gb(6);
  gb.add_edge(0, 1);  // cluster A: anomalous (low baseline, high events)
  gb.add_edge(2, 3);  // cluster B: busy but proportional
  gb.add_edge(4, 5);  // background
  const auto g = gb.build();
  const std::vector<std::uint32_t> b{1, 1, 6, 6, 2, 2};
  const std::vector<std::uint32_t> w{5, 5, 7, 7, 1, 1};
  Scan2DOptions opt;
  opt.max_size = 2;
  opt.max_baseline = 12;
  opt.epsilon = 1e-4;
  gf::GF256 f;
  const auto table = detect_scan2d_seq(g, b, w, opt, f);
  double w_total = 0, b_total = 0;
  for (auto x : w) w_total += x;
  for (auto x : b) b_total += x;
  const auto best = maximize_scan2d(
      table, [&](std::uint32_t wz, std::uint32_t by) {
        if (by == 0 || by >= b_total) return 0.0;
        return scan::kulldorff(wz, by, w_total, b_total);
      });
  EXPECT_EQ(best.baseline, 2u);  // cluster A: B = 1+1
  EXPECT_EQ(best.weight, 10u);   // W = 5+5
}

/// A small heterogeneous-baseline instance for the distributed driver.
struct Scan2DFixture {
  gf::GF256 f;
  graph::Graph g;
  std::vector<std::uint32_t> b, w;
  partition::Partition part;
  Scan2DOptions sopt;
  MidasOptions mopt;

  Scan2DFixture() {
    Xoshiro256 rng(51);
    g = graph::erdos_renyi_gnp(8, 0.3, rng);
    for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
      b.push_back(1 + static_cast<std::uint32_t>(rng.below(2)));
      w.push_back(static_cast<std::uint32_t>(rng.below(3)));
    }
    part = partition::block_partition(g, 2);
    sopt.max_size = 3;
    sopt.max_baseline = 5;
    sopt.seed = 300;
    sopt.max_rounds = 4;
    mopt.n_ranks = 4;
    mopt.n1 = 2;
    mopt.n2 = 2;
  }
  [[nodiscard]] Feasibility2D run(const MidasOptions& o) const {
    return midas_scan2d(g, part, b, w, sopt, o, f);
  }
};

std::string scan2d_dir(const std::string& name) {
  const auto p = std::filesystem::temp_directory_path() /
                 ("midas_test_scan2d_" + name);
  std::filesystem::remove_all(p);
  std::filesystem::create_directories(p);
  return p.string();
}

TEST(Scan2D, ResumeFromEverySnapshotIsBitExact) {
  const Scan2DFixture fx;
  const auto clean = fx.run(fx.mopt);

  MidasOptions ck = fx.mopt;
  ck.checkpoint.dir = scan2d_dir("src");
  ck.checkpoint.every_rounds = 1;
  ck.checkpoint.every_waves = 1;
  ck.checkpoint.keep = 64;
  (void)fx.run(ck);
  runtime::CheckpointStore store(ck.checkpoint.dir);
  auto files = store.snapshots();
  std::reverse(files.begin(), files.end());
  ASSERT_GE(files.size(), 3u);

  for (std::size_t kill = 1; kill <= files.size(); ++kill) {
    MidasOptions r = ck;
    r.checkpoint.dir = scan2d_dir("resume_" + std::to_string(kill));
    for (std::size_t i = 0; i < kill; ++i)
      std::filesystem::copy_file(
          files[i], std::filesystem::path(r.checkpoint.dir) /
                        std::filesystem::path(files[i]).filename());
    r.checkpoint.resume = true;
    const auto res = fx.run(r);
    EXPECT_EQ(res.feasible, clean.feasible) << "kill point " << kill;
    EXPECT_EQ(res.vtime, clean.vtime) << "kill point " << kill;
    EXPECT_GE(res.resumed_from_round, 0) << "kill point " << kill;
  }
}

TEST(Scan2D, ChannelFaultsCostTimeNotTheTable) {
  const Scan2DFixture fx;
  const auto clean = fx.run(fx.mopt);
  MidasOptions faulty = fx.mopt;
  faulty.spmd.faults.seed = 77;
  faulty.spmd.faults.with_channel({-1, -1, 0.10, 0.05, 0.10, 2e-5});
  const auto res = fx.run(faulty);
  EXPECT_EQ(res.feasible, clean.feasible);
  EXPECT_TRUE(res.failed_ranks.empty());
  EXPECT_GT(res.vtime, clean.vtime);
}

TEST(Scan2D, BadOptionsAreTypedOptionsErrors) {
  const Scan2DFixture fx;
  // An explicit bit-sliced request is no options error: scan2d runs the
  // scan body's bit-sliced kernel, with the scalar run's table and clock.
  MidasOptions scalar = fx.mopt;
  scalar.kernel = Kernel::kScalar;
  MidasOptions bits = fx.mopt;
  bits.kernel = Kernel::kBitsliced;
  const auto want = fx.run(scalar);
  const auto got = fx.run(bits);
  EXPECT_EQ(got.feasible, want.feasible);
  EXPECT_EQ(got.vtime, want.vtime);
  MidasOptions arity = fx.mopt;
  arity.n1 = 4;
  EXPECT_THROW((void)fx.run(arity), InvalidOptionsError);
  Scan2DOptions big = fx.sopt;
  big.max_size = 21;
  EXPECT_THROW(
      (void)midas_scan2d(fx.g, fx.part, fx.b, fx.w, big, fx.mopt, fx.f),
      InvalidOptionsError);
  const std::vector<std::uint32_t> short_b(fx.b.begin(), fx.b.end() - 1);
  EXPECT_THROW(
      (void)midas_scan2d(fx.g, fx.part, short_b, fx.w, fx.sopt, fx.mopt,
                         fx.f),
      InvalidOptionsError);
}

}  // namespace
}  // namespace midas::core
