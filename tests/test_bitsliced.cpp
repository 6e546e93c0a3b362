// BitslicedGF and the bit-sliced detection kernels.
//
// Two layers of guarantees:
//  - algebra: every BitslicedGF primitive agrees with GFSmall lane by lane
//    for every field width l in [2, 16] (and with GF256 for l = 8);
//  - kernels: the bit-sliced k-path / k-tree / scan detectors are
//    bit-exact against the scalar ones — identical per-round accumulators
//    sequentially, and identical results, virtual clocks, halo traffic,
//    snapshots, and failover outcomes in the distributed engines. A
//    snapshot written under one kernel must resume under the other.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <stdexcept>
#include <vector>

#include "core/detect_par.hpp"
#include "core/detect_seq.hpp"
#include "core/motif.hpp"
#include "gf/bitsliced.hpp"
#include "gf/gf256.hpp"
#include "gf/gf64.hpp"
#include "gf/gfsmall.hpp"
#include "graph/digraph.hpp"
#include "graph/generators.hpp"
#include "partition/multilevel.hpp"
#include "partition/partition.hpp"
#include "runtime/checkpoint.hpp"
#include "util/rng.hpp"
#include "fixtures.hpp"

namespace fs = std::filesystem;

namespace midas::gf {
namespace {

using word = BitslicedGF::word;
using value_type = BitslicedGF::value_type;

/// Fill a block with 64 random field elements, returning them lane-major.
std::vector<value_type> random_block(const GFSmall& f, BitslicedGF& bs,
                                     word* block, Xoshiro256& rng) {
  std::vector<value_type> lanes(BitslicedGF::kLanes);
  for (int b = 0; b < BitslicedGF::kLanes; ++b)
    lanes[static_cast<std::size_t>(b)] =
        static_cast<value_type>(rng.below(f.order()));
  bs.pack_lanes(block, lanes.data(), BitslicedGF::kLanes);
  return lanes;
}

TEST(BitslicedGF, ConstructorValidatesWidthAndModulus) {
  EXPECT_THROW(BitslicedGF(1, 0x7), std::invalid_argument);
  EXPECT_THROW(BitslicedGF(17, 0x3ffff), std::invalid_argument);
  // Degree of the modulus must be exactly l.
  EXPECT_THROW(BitslicedGF(8, 0x1b), std::invalid_argument);
  EXPECT_NO_THROW(BitslicedGF(8, irreducible_poly(8)));
}

TEST(BitslicedGF, MirrorsGF256) {
  GF256 f;
  BitslicedGF bs(f);
  EXPECT_EQ(bs.bits(), 8);
  EXPECT_EQ(bs.modulus(), f.modulus());
}

class BitslicedVsGFSmall : public ::testing::TestWithParam<int> {};

TEST_P(BitslicedVsGFSmall, PackUnpackRoundtrip) {
  const int l = GetParam();
  GFSmall f(l);
  BitslicedGF bs(f);
  Xoshiro256 rng(11u + static_cast<std::uint64_t>(l));
  std::vector<word> block(static_cast<std::size_t>(bs.words()));
  const auto lanes = random_block(f, bs, block.data(), rng);
  for (int b = 0; b < BitslicedGF::kLanes; ++b)
    EXPECT_EQ(bs.lane(block.data(), b), lanes[static_cast<std::size_t>(b)]);
  std::vector<value_type> back(BitslicedGF::kLanes);
  bs.unpack_lanes(back.data(), block.data(), BitslicedGF::kLanes);
  EXPECT_EQ(back, lanes);
  // Partial pack clears the remaining lanes.
  bs.pack_lanes(block.data(), lanes.data(), 5);
  for (int b = 5; b < BitslicedGF::kLanes; ++b)
    EXPECT_EQ(bs.lane(block.data(), b), 0u);
}

TEST_P(BitslicedVsGFSmall, AddAndMulMatchLaneByLane) {
  const int l = GetParam();
  GFSmall f(l);
  BitslicedGF bs(f);
  Xoshiro256 rng(23u + static_cast<std::uint64_t>(l));
  const auto L = static_cast<std::size_t>(bs.words());
  std::vector<word> a(L), b(L), sum(L), prod(L);
  for (int trial = 0; trial < 8; ++trial) {
    const auto la = random_block(f, bs, a.data(), rng);
    const auto lb = random_block(f, bs, b.data(), rng);
    std::copy(a.begin(), a.end(), sum.begin());
    bs.add_into(sum.data(), b.data());
    bs.mul(prod.data(), a.data(), b.data());
    for (int q = 0; q < BitslicedGF::kLanes; ++q) {
      const auto i = static_cast<std::size_t>(q);
      EXPECT_EQ(bs.lane(sum.data(), q), f.add(la[i], lb[i]));
      EXPECT_EQ(bs.lane(prod.data(), q), f.mul(la[i], lb[i]))
          << "l=" << l << " lane " << q;
    }
  }
}

TEST_P(BitslicedVsGFSmall, MatrixMatchesConstantMul) {
  const int l = GetParam();
  GFSmall f(l);
  BitslicedGF bs(f);
  Xoshiro256 rng(37u + static_cast<std::uint64_t>(l));
  const auto L = static_cast<std::size_t>(bs.words());
  std::vector<word> x(L), y(L);
  for (int trial = 0; trial < 8; ++trial) {
    const auto c = static_cast<value_type>(rng.below(f.order()));
    const auto m = bs.matrix(c);
    const auto lx = random_block(f, bs, x.data(), rng);
    bs.mul_matrix(y.data(), m, x.data());
    for (int q = 0; q < BitslicedGF::kLanes; ++q)
      EXPECT_EQ(bs.lane(y.data(), q),
                f.mul(c, lx[static_cast<std::size_t>(q)]));
  }
}

TEST_P(BitslicedVsGFSmall, BroadcastAndFoldMatchScalarSum) {
  const int l = GetParam();
  GFSmall f(l);
  BitslicedGF bs(f);
  Xoshiro256 rng(41u + static_cast<std::uint64_t>(l));
  const auto L = static_cast<std::size_t>(bs.words());
  std::vector<word> x(L);
  const auto c = static_cast<value_type>(1 + rng.below(f.order() - 1));
  const word mask = rng();
  bs.broadcast(x.data(), c, mask);
  for (int q = 0; q < BitslicedGF::kLanes; ++q)
    EXPECT_EQ(bs.lane(x.data(), q), (mask >> q) & 1u ? c : 0u);
  // fold_xor == XOR of the lanes, full and masked.
  const auto lanes = random_block(f, bs, x.data(), rng);
  value_type all = 0, some = 0;
  const word m2 = rng();
  for (int q = 0; q < BitslicedGF::kLanes; ++q) {
    all = f.add(all, lanes[static_cast<std::size_t>(q)]);
    if ((m2 >> q) & 1u)
      some = f.add(some, lanes[static_cast<std::size_t>(q)]);
  }
  EXPECT_EQ(bs.fold_xor(x.data()), all);
  EXPECT_EQ(bs.fold_xor(x.data(), m2), some);
}

// The fixed-width forms the kernels run must equal the runtime-width
// reference methods at every width dispatch_width lifts.
TEST_P(BitslicedVsGFSmall, FixedWidthFormsMatchRuntimeReference) {
  const int l = GetParam();
  GFSmall f(l);
  BitslicedGF bs(f);
  Xoshiro256 rng(43u + static_cast<std::uint64_t>(l));
  const auto L = static_cast<std::size_t>(bs.words());
  detail_bs::dispatch_width(l, [&](auto lc) {
    constexpr int LC = decltype(lc)::value;
    ASSERT_EQ(static_cast<std::size_t>(LC), L);
    for (int trial = 0; trial < 8; ++trial) {
      std::vector<word> a(L), b(L), want(L), got(L);
      (void)random_block(f, bs, a.data(), rng);
      (void)random_block(f, bs, b.data(), rng);
      bs.mul(want.data(), a.data(), b.data());
      bs.mul_w<LC>(got.data(), a.data(), b.data());
      EXPECT_EQ(got, want) << "mul_w l=" << l;

      const auto m = bs.matrix(static_cast<value_type>(rng.below(f.order())));
      bs.mul_matrix(want.data(), m, a.data());
      BitslicedGF::mul_matrix_w<LC>(got.data(), m, a.data());
      EXPECT_EQ(got, want) << "mul_matrix_w l=" << l;
      const word lanes = rng();
      BitslicedGF::mul_matrix_masked_w<LC>(got.data(), m, a.data(), lanes);
      for (std::size_t p = 0; p < L; ++p)
        EXPECT_EQ(got[p], want[p] & lanes) << "masked l=" << l;

      // fold_xor_rows over three blocks two words apart equals the
      // runtime add_into + masked fold_xor.
      std::vector<word> rows(3 * (L + 2));
      std::vector<word> sum(L, 0);
      for (std::size_t r = 0; r < 3; ++r) {
        (void)random_block(f, bs, &rows[r * (L + 2)], rng);
        bs.add_into(sum.data(), &rows[r * (L + 2)]);
      }
      EXPECT_EQ(fold_xor_rows(bs, rows, 0, 3, L + 2, lanes),
                bs.fold_xor(sum.data(), lanes))
          << "fold_xor_rows l=" << l;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(AllWidths, BitslicedVsGFSmall,
                         ::testing::Range(2, 17));

TEST(BitslicedGF, LiveMaskMatchesInnerProductParity) {
  Xoshiro256 rng(59);
  for (int trial = 0; trial < 64; ++trial) {
    const auto v = static_cast<std::uint32_t>(rng());
    // Aligned, unaligned, and short blocks all reduce to one parity per
    // lane.
    for (const std::uint64_t base :
         {std::uint64_t{0}, std::uint64_t{64}, std::uint64_t{1024},
          std::uint64_t{3}, std::uint64_t{70}, rng() & 0xffffu}) {
      for (const int lanes : {64, 37, 5, 1}) {
        const word m = BitslicedGF::live_mask(v, base, lanes);
        for (int b = 0; b < 64; ++b) {
          const bool expect_live =
              b < lanes &&
              (std::popcount(v & static_cast<std::uint32_t>(
                                     base + static_cast<std::uint64_t>(b))) &
               1) == 0;
          EXPECT_EQ(((m >> b) & 1u) != 0, expect_live)
              << "v=" << v << " base=" << base << " lane " << b;
        }
      }
    }
  }
}

/// pack_lanes / unpack_lanes (8x8 bit-matrix transposes) against the
/// per-lane reference accessors, at every width and every lane count.
template <typename Vt>
void check_transposes(int l, Xoshiro256& rng) {
  const BitslicedGF bs(l, irreducible_poly(l));
  const auto L = static_cast<std::size_t>(l);
  for (int lanes = 1; lanes <= BitslicedGF::kLanes; ++lanes) {
    std::vector<Vt> vals(BitslicedGF::kLanes);
    for (auto& x : vals) x = static_cast<Vt>(rng.below(1u << l));
    // Pack over a garbage block: live lanes match set_lane, the rest clear.
    std::vector<word> block(L), ref(L, 0);
    for (auto& w : block) w = rng();
    bs.pack_lanes(block.data(), vals.data(), lanes);
    for (int b = 0; b < lanes; ++b)
      bs.set_lane(ref.data(), b, vals[static_cast<std::size_t>(b)]);
    EXPECT_EQ(block, ref) << "l=" << l << " lanes=" << lanes;
    for (int b = 0; b < BitslicedGF::kLanes; ++b)
      EXPECT_EQ(bs.lane(block.data(), b),
                b < lanes ? vals[static_cast<std::size_t>(b)] : 0u)
          << "l=" << l << " lanes=" << lanes << " lane " << b;
    // Unpack a random block: live lanes match lane(), the rest untouched.
    for (auto& w : block) w = rng();
    const Vt sentinel = static_cast<Vt>(0xA5A5u);
    std::vector<Vt> out(BitslicedGF::kLanes, sentinel);
    bs.unpack_lanes(out.data(), block.data(), lanes);
    for (int b = 0; b < BitslicedGF::kLanes; ++b)
      EXPECT_EQ(out[static_cast<std::size_t>(b)],
                b < lanes ? static_cast<Vt>(bs.lane(block.data(), b))
                          : sentinel)
          << "l=" << l << " lanes=" << lanes << " lane " << b;
  }
}

TEST(BitslicedGF, TransposesMatchLaneAccessAtEveryWidthAndLaneCount) {
  Xoshiro256 rng(61);
  for (int l = 2; l <= 16; ++l) {
    check_transposes<value_type>(l, rng);
    if (l <= 8) check_transposes<std::uint8_t>(l, rng);
  }
}

}  // namespace
}  // namespace midas::gf

// ---------------------------------------------------------------------------
// Sequential kernels: scalar vs bitsliced bit-exactness
// ---------------------------------------------------------------------------

namespace midas::core {
namespace {

using graph::Graph;

DetectOptions seq_opts(int k, Kernel kernel, std::uint64_t seed = 7) {
  DetectOptions o;
  o.k = k;
  o.seed = seed;
  o.max_rounds = 4;
  o.early_exit = false;  // compare every round, not just the first hit
  o.kernel = kernel;
  return o;
}

TEST(BitslicedSeq, KPathRoundAccumulatorsMatchScalarAllWidths) {
  Xoshiro256 rng(101);
  for (int l = 2; l <= 16; ++l) {
    gf::GFSmall f(l);
    const Graph g = graph::erdos_renyi_gnp(
        18 + static_cast<graph::VertexId>(rng.below(8)), 0.2, rng);
    for (const int k : {3, 5, 7}) {
      const auto scalar =
          detect_kpath_seq(g, seq_opts(k, Kernel::kScalar, 50 + l), f);
      const auto sliced =
          detect_kpath_seq(g, seq_opts(k, Kernel::kBitsliced, 50 + l), f);
      EXPECT_EQ(sliced.round_totals, scalar.round_totals)
          << "l=" << l << " k=" << k;
      EXPECT_EQ(sliced.found_round, scalar.found_round);
      EXPECT_EQ(sliced.iterations, scalar.iterations);
    }
  }
}

TEST(BitslicedSeq, KPathMatchesScalarOnGF256) {
  gf::GF256 f;
  Xoshiro256 rng(202);
  for (int trial = 0; trial < 4; ++trial) {
    const Graph g = graph::erdos_renyi_gnp(24, 0.18, rng);
    const int k = 4 + trial;
    const auto scalar =
        detect_kpath_seq(g, seq_opts(k, Kernel::kScalar, 90 + trial), f);
    const auto sliced =
        detect_kpath_seq(g, seq_opts(k, Kernel::kBitsliced, 90 + trial), f);
    EXPECT_EQ(sliced.round_totals, scalar.round_totals) << "trial " << trial;
  }
}

TEST(BitslicedSeq, KTreeRoundAccumulatorsMatchScalar) {
  Xoshiro256 rng(303);
  for (const int l : {2, 7, 8, 13, 16}) {
    gf::GFSmall f(l);
    const Graph g = graph::erdos_renyi_gnp(20, 0.25, rng);
    for (const int k : {3, 4, 6}) {
      const Graph tmpl =
          graph::random_tree(static_cast<graph::VertexId>(k), rng);
      TreeDecomposition td(tmpl, 0);
      const auto scalar =
          detect_ktree_seq(g, td, seq_opts(k, Kernel::kScalar, 70 + l), f);
      const auto sliced =
          detect_ktree_seq(g, td, seq_opts(k, Kernel::kBitsliced, 70 + l), f);
      EXPECT_EQ(sliced.round_totals, scalar.round_totals)
          << "l=" << l << " k=" << k;
      EXPECT_EQ(sliced.found_round, scalar.found_round);
    }
  }
}

TEST(BitslicedSeq, ScanTableMatchesScalar) {
  Xoshiro256 rng(404);
  for (const int l : {3, 8, 12}) {
    gf::GFSmall f(l);
    const Graph g = graph::erdos_renyi_gnp(14, 0.25, rng);
    std::vector<std::uint32_t> w(g.num_vertices());
    for (auto& x : w) x = static_cast<std::uint32_t>(rng.below(3));
    ScanOptions o;
    o.k = 4;
    o.seed = 900 + static_cast<std::uint64_t>(l);
    o.max_rounds = 1;  // the table is already deterministic per round
    o.kernel = Kernel::kScalar;
    const auto scalar = detect_scan_seq(g, w, o, f);
    o.kernel = Kernel::kBitsliced;
    const auto sliced = detect_scan_seq(g, w, o, f);
    EXPECT_EQ(sliced.feasible, scalar.feasible) << "l=" << l;
    EXPECT_EQ(sliced.max_weight, scalar.max_weight);
  }
}

TEST(BitslicedSeq, ExplicitBitslicedOnWideFieldIsAnError) {
  gf::GF64 f;
  Xoshiro256 rng(505);
  const Graph g = graph::erdos_renyi_gnp(12, 0.3, rng);
  EXPECT_THROW(detect_kpath_seq(g, seq_opts(4, Kernel::kBitsliced), f),
               std::invalid_argument);
  // kAuto silently falls back to scalar.
  EXPECT_NO_THROW(detect_kpath_seq(g, seq_opts(4, Kernel::kAuto), f));
}

// ---------------------------------------------------------------------------
// Distributed engines: kernels must agree on results AND virtual time
// ---------------------------------------------------------------------------

MidasOptions par_opts(int k, int n_ranks, int n1, std::uint32_t n2,
                      Kernel kernel, std::uint64_t seed = 7) {
  MidasOptions o;
  o.k = k;
  o.epsilon = 1e-3;
  o.seed = seed;
  o.n_ranks = n_ranks;
  o.n1 = n1;
  o.n2 = n2;
  o.kernel = kernel;
  return o;
}

TEST(BitslicedPar, KPathKernelsAgreeOnResultsAndClocks) {
  gf::GF256 f;
  Xoshiro256 rng(606);
  // n2 = 5 makes phase bases non-multiples of 64, exercising the
  // unaligned live_mask path; n2 = 64 the aligned fast path.
  for (const auto& [n_ranks, n1, n2] :
       {std::tuple<int, int, std::uint32_t>{4, 2, 5},
        std::tuple<int, int, std::uint32_t>{4, 4, 64},
        std::tuple<int, int, std::uint32_t>{6, 3, 16},
        std::tuple<int, int, std::uint32_t>{2, 1, 7}}) {
    const Graph g = graph::erdos_renyi_gnp(
        20 + static_cast<graph::VertexId>(rng.below(8)), 0.2, rng);
    const auto part = partition::multilevel_partition(g, n1);
    const auto scalar = midas_kpath(
        g, part, par_opts(5, n_ranks, n1, n2, Kernel::kScalar), f);
    const auto sliced = midas_kpath(
        g, part, par_opts(5, n_ranks, n1, n2, Kernel::kBitsliced), f);
    EXPECT_EQ(sliced.found, scalar.found) << "N=" << n_ranks;
    EXPECT_EQ(sliced.found_round, scalar.found_round);
    EXPECT_EQ(sliced.rounds_run, scalar.rounds_run);
    // Identical charges and message sizes => identical modeled time.
    EXPECT_EQ(sliced.vtime, scalar.vtime);
    EXPECT_EQ(sliced.vclocks, scalar.vclocks);
  }
}

TEST(BitslicedPar, KTreeKernelsAgreeOnResultsAndClocks) {
  gf::GF256 f;
  Xoshiro256 rng(707);
  const Graph g = graph::erdos_renyi_gnp(22, 0.25, rng);
  for (const int k : {4, 6}) {
    const Graph tmpl =
        graph::random_tree(static_cast<graph::VertexId>(k), rng);
    TreeDecomposition td(tmpl, 0);
    const auto part = partition::multilevel_partition(g, 2);
    const auto scalar = midas_ktree(
        g, part, td, par_opts(k, 4, 2, 5, Kernel::kScalar), f);
    const auto sliced = midas_ktree(
        g, part, td, par_opts(k, 4, 2, 5, Kernel::kBitsliced), f);
    EXPECT_EQ(sliced.found, scalar.found) << "k=" << k;
    EXPECT_EQ(sliced.found_round, scalar.found_round);
    EXPECT_EQ(sliced.vtime, scalar.vtime);
    EXPECT_EQ(sliced.vclocks, scalar.vclocks);
  }
}

TEST(BitslicedPar, ScanKernelsAgreeOnTableAndClocks) {
  gf::GF256 f;
  Xoshiro256 rng(808);
  const Graph g = graph::erdos_renyi_gnp(14, 0.25, rng);
  std::vector<std::uint32_t> w(g.num_vertices());
  for (auto& x : w) x = static_cast<std::uint32_t>(rng.below(3));
  const auto part = partition::multilevel_partition(g, 2);
  for (const std::uint32_t n2 : {std::uint32_t{5}, std::uint32_t{8}}) {
    auto opt = par_opts(4, 4, 2, n2, Kernel::kScalar);
    opt.max_rounds = 1;
    const auto scalar = midas_scan(g, part, w, opt, f);
    opt.kernel = Kernel::kBitsliced;
    const auto sliced = midas_scan(g, part, w, opt, f);
    EXPECT_EQ(sliced.table.feasible, scalar.table.feasible) << "n2=" << n2;
    EXPECT_EQ(sliced.vtime, scalar.vtime);
    EXPECT_EQ(sliced.vclocks, scalar.vclocks);
  }
}

// ---------------------------------------------------------------------------
// Snapshots are kernel-portable; failover is kernel-independent
// ---------------------------------------------------------------------------

std::string fresh_dir(const std::string& name) {
  const fs::path p =
      fs::temp_directory_path() / ("midas_test_bitsliced_" + name);
  fs::remove_all(p);
  fs::create_directories(p);
  return p.string();
}

TEST(BitslicedPar, SnapshotWrittenUnderOneKernelResumesUnderTheOther) {
  gf::GF256 f;
  Xoshiro256 rng(909);
  const Graph g = graph::erdos_renyi_gnp(24, 0.25, rng);
  const auto part = partition::multilevel_partition(g, 2);
  auto base = par_opts(4, 4, 2, 4, Kernel::kScalar, 91);
  base.max_rounds = 4;
  base.early_exit = false;
  const auto clean = midas_kpath(g, part, base, f);

  for (const auto& [writer, resumer, tag] :
       {std::tuple<Kernel, Kernel, const char*>{
            Kernel::kScalar, Kernel::kBitsliced, "s2b"},
        std::tuple<Kernel, Kernel, const char*>{
            Kernel::kBitsliced, Kernel::kScalar, "b2s"}}) {
    auto wr = base;
    wr.kernel = writer;
    wr.checkpoint.dir = fresh_dir(std::string("portable_") + tag);
    wr.checkpoint.every_rounds = 2;
    (void)midas_kpath(g, part, wr, f);
    ASSERT_FALSE(runtime::CheckpointStore(wr.checkpoint.dir)
                     .snapshots()
                     .empty());
    auto rs = wr;
    rs.kernel = resumer;
    rs.checkpoint.resume = true;
    const auto res = midas_kpath(g, part, rs, f);
    EXPECT_GE(res.resumed_from_round, 0) << tag;
    EXPECT_EQ(res.found, clean.found) << tag;
    EXPECT_EQ(res.found_round, clean.found_round) << tag;
    EXPECT_EQ(res.vtime, clean.vtime) << tag;
    EXPECT_EQ(res.vclocks, clean.vclocks) << tag;
  }
}

TEST(BitslicedPar, FailoverOutcomeIsKernelIndependent) {
  gf::GF256 f;
  Xoshiro256 rng(1010);
  const Graph g = graph::erdos_renyi_gnp(22, 0.25, rng);
  const auto part = partition::multilevel_partition(g, 2);
  auto opt = par_opts(4, 4, 2, 8, Kernel::kScalar, 17);
  opt.max_rounds = 3;
  opt.early_exit = false;
  opt.spmd.supervise = true;
  opt.spmd.faults.kill_at_event(3, 6);  // lose one rank mid-round
  const auto scalar = midas_kpath(g, part, opt, f);
  opt.kernel = Kernel::kBitsliced;
  const auto sliced = midas_kpath(g, part, opt, f);
  // When peers observe the injected death is scheduling-dependent, so
  // clocks and message counts legitimately vary between runs; only the
  // detection answer is deterministic under faults (the fault-runtime
  // contract, see src/runtime/fault.hpp).
  EXPECT_EQ(sliced.failed_ranks, scalar.failed_ranks);
  EXPECT_EQ(sliced.found, scalar.found);
  EXPECT_EQ(sliced.found_round, scalar.found_round);

  // And the degraded answer still matches the clean sequential one.
  DetectOptions so = seq_opts(4, Kernel::kScalar, 17);
  so.max_rounds = 3;
  const auto seq = detect_kpath_seq(g, so, f);
  EXPECT_EQ(scalar.found, seq.found);
  EXPECT_EQ(scalar.found_round, seq.found_round);
}

// ---------------------------------------------------------------------------
// Plane-native halos: byte-identical payloads, closed-form size
// ---------------------------------------------------------------------------

TEST(PlaneHalo, PartialBlockPackingRoundTripsAtEveryWidthAndLaneCount) {
  Xoshiro256 rng(4141);
  for (int l = 2; l <= 16; ++l)
    for (int lanes = 1; lanes < 64; ++lanes) {
      const std::uint64_t mask = (std::uint64_t{1} << lanes) - 1;
      std::vector<std::uint64_t> planes(static_cast<std::size_t>(l));
      for (auto& w : planes) w = rng();  // junk past `lanes` must not ship
      std::vector<std::uint64_t> bits(static_cast<std::size_t>(l) + 1, 7);
      detail::pack_plane_bits(bits.data(), planes.data(), l, lanes);
      // Plane q holds bits [q * lanes, (q + 1) * lanes); nothing beyond.
      for (int bit = 0; bit < 64 * (l + 1); ++bit) {
        const bool set = ((bits[static_cast<std::size_t>(bit / 64)] >>
                           (bit % 64)) & 1u) != 0;
        const bool want =
            bit < l * lanes &&
            ((planes[static_cast<std::size_t>(bit / lanes)] >>
              (bit % lanes)) & 1u) != 0;
        ASSERT_EQ(set, want) << "l=" << l << " lanes=" << lanes
                             << " bit " << bit;
      }
      std::vector<std::uint64_t> back(static_cast<std::size_t>(l));
      detail::unpack_plane_bits(back.data(), bits.data(), l, lanes);
      for (int q = 0; q < l; ++q)
        EXPECT_EQ(back[static_cast<std::size_t>(q)],
                  planes[static_cast<std::size_t>(q)] & mask)
            << "l=" << l << " lanes=" << lanes << " plane " << q;
    }
}

/// What one distributed run exposes for the cross-kernel halo comparison.
struct HaloRun {
  std::vector<int> answer;  // engine-specific decision encoding
  std::vector<double> vclocks;
  runtime::CommStats stats;
};

HaloRun halo_run(const MidasResult& r) {
  return {{r.found ? 1 : 0, r.found_round, r.rounds_run}, r.vclocks,
          r.total_stats};
}

HaloRun halo_run(const MidasScanResult& r) {
  HaloRun out{{}, r.vclocks, r.total_stats};
  for (const auto& row : r.table.feasible)
    for (const bool cell : row) out.answer.push_back(cell ? 1 : 0);
  return out;
}

/// Closed-form plane-native halo traffic of a clean run: every phase ships
/// `exchanges` levels; each level carries, per send-list entry of every
/// part, `units` rows of ceil(l * lanes / 8) bytes per 64-lane block.
std::uint64_t plane_halo_bytes(const std::vector<partition::PartView>& views,
                               const Schedule& sched, int l, int exchanges,
                               std::uint64_t units) {
  std::uint64_t sends = 0;
  for (const auto& v : views)
    for (const auto& list : v.send_to) sends += list.size();
  std::uint64_t per_round = 0;
  for (std::uint64_t ph = 0; ph < sched.phases(); ++ph) {
    const auto [q0, q1] = sched.phase_range(ph);
    std::uint64_t vertex_bytes = 0;
    for (std::uint64_t b0 = q0; b0 < q1; b0 += 64) {
      const std::uint64_t lanes = std::min<std::uint64_t>(64, q1 - b0);
      vertex_bytes += (static_cast<std::uint64_t>(l) * lanes + 7) / 8;
    }
    per_round += static_cast<std::uint64_t>(exchanges) * units * sends *
                 vertex_bytes;
  }
  return per_round * static_cast<std::uint64_t>(sched.rounds);
}

constexpr int kHaloK = 7;  // 128 iterations: N2 = 100 spans two blocks
constexpr int kHaloRounds = 2;

/// Runs `run(f, kernel, n1)` at l in {5, 8, 12} and N2 in {8, 36, 64, 100}
/// (whole, partial and multi-block lane sets). Scalar and bit-sliced runs
/// at N1 = 2 must agree on the answer, clocks, messages and bytes; the
/// bytes beyond an N1 = 1 twin (same collectives, no halo) must equal the
/// closed-form plane-native size.
template <typename RunFn>
void check_plane_halos(const char* engine,
                       const std::vector<partition::PartView>& views,
                       int exchanges, std::uint64_t units, RunFn&& run) {
  auto at_width = [&](int l, const auto& f) {
    for (const std::uint32_t n2 : {8u, 36u, 64u, 100u}) {
      const std::string tag = std::string(engine) +
                              " l=" + std::to_string(l) +
                              " N2=" + std::to_string(n2);
      const HaloRun scalar = run(f, Kernel::kScalar, 2, n2);
      const HaloRun sliced = run(f, Kernel::kBitsliced, 2, n2);
      const HaloRun twin = run(f, Kernel::kScalar, 1, n2);
      EXPECT_EQ(sliced.answer, scalar.answer) << tag;
      EXPECT_EQ(sliced.vclocks, scalar.vclocks) << tag;
      EXPECT_EQ(sliced.stats.messages_sent, scalar.stats.messages_sent)
          << tag;
      EXPECT_EQ(sliced.stats.bytes_sent, scalar.stats.bytes_sent) << tag;
      Schedule sched = make_schedule(kHaloK, 0.5, 4, 2, n2);
      sched.rounds = kHaloRounds;
      const std::uint64_t halo =
          plane_halo_bytes(views, sched, l, exchanges, units);
      ASSERT_GT(halo, 0u) << tag;  // the partition must cut edges
      EXPECT_EQ(scalar.stats.bytes_sent - twin.stats.bytes_sent, halo)
          << tag;
    }
  };
  at_width(5, gf::GFSmall(5));
  at_width(8, gf::GF256{});
  at_width(12, gf::GFSmall(12));
}

MidasOptions halo_opts(Kernel kernel, int n1, std::uint32_t n2) {
  MidasOptions o = par_opts(kHaloK, 4, n1, n2, kernel, 23);
  o.max_rounds = kHaloRounds;
  o.early_exit = false;
  return o;
}

TEST(PlaneHalo, KPathUndirectedKernelsShipIdenticalPlaneNativeBytes) {
  const Graph g = fixtures::gnp(18, 0.25, 4242);
  const auto part = partition::multilevel_partition(g, 2);
  const auto one = partition::block_partition(g, 1);
  check_plane_halos("kpath", partition::build_part_views(g, part),
                    kHaloK - 1, 1,
                    [&](const auto& f, Kernel kernel, int n1,
                        std::uint32_t n2) {
                      return halo_run(midas_kpath(g, n1 == 1 ? one : part,
                                                  halo_opts(kernel, n1, n2),
                                                  f));
                    });
}

TEST(PlaneHalo, KPathDirectedKernelsShipIdenticalPlaneNativeBytes) {
  Xoshiro256 rng(4343);
  const auto g = graph::random_digraph(18, 60, rng);
  // Partitioners take undirected graphs; alternate owners instead.
  partition::Partition part{2, std::vector<int>(g.num_vertices())};
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) part.owner[v] = v % 2;
  const partition::Partition one{1, std::vector<int>(g.num_vertices(), 0)};
  check_plane_halos("kpath-directed", partition::build_dipart_views(g, part),
                    kHaloK - 1, 1,
                    [&](const auto& f, Kernel kernel, int n1,
                        std::uint32_t n2) {
                      return halo_run(midas_kpath_directed(
                          g, n1 == 1 ? one : part,
                          halo_opts(kernel, n1, n2), f));
                    });
}

TEST(PlaneHalo, KTreeKernelsShipIdenticalPlaneNativeBytes) {
  const Graph g = fixtures::gnp(18, 0.25, 4444);
  Xoshiro256 rng(45);
  const TreeDecomposition td(graph::random_tree(kHaloK, rng), 0);
  std::vector<bool> crosses(td.subtemplates().size(), false);
  for (const auto& sub : td.subtemplates())
    if (sub.child1 >= 0) crosses[static_cast<std::size_t>(sub.child2)] = true;
  const int exchanges =
      static_cast<int>(std::count(crosses.begin(), crosses.end(), true));
  const auto part = partition::multilevel_partition(g, 2);
  const auto one = partition::block_partition(g, 1);
  check_plane_halos("ktree", partition::build_part_views(g, part), exchanges,
                    1,
                    [&](const auto& f, Kernel kernel, int n1,
                        std::uint32_t n2) {
                      return halo_run(midas_ktree(g, n1 == 1 ? one : part, td,
                                                  halo_opts(kernel, n1, n2),
                                                  f));
                    });
}

TEST(PlaneHalo, ScanKernelsShipIdenticalPlaneNativeBytes) {
  const Graph g = fixtures::gnp(12, 0.3, 4545);
  std::vector<std::uint32_t> w(g.num_vertices());
  Xoshiro256 rng(46);
  for (auto& x : w) x = static_cast<std::uint32_t>(rng.below(2));
  // One row per weight 0..wmax, wmax the sum of the k largest weights.
  std::vector<std::uint32_t> sorted(w);
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  std::uint64_t width = 1;
  for (int i = 0; i < kHaloK; ++i) width += sorted[static_cast<std::size_t>(i)];
  const auto part = partition::multilevel_partition(g, 2);
  const auto one = partition::block_partition(g, 1);
  check_plane_halos("scan", partition::build_part_views(g, part), kHaloK - 1,
                    width,
                    [&](const auto& f, Kernel kernel, int n1,
                        std::uint32_t n2) {
                      return halo_run(midas_scan(g, n1 == 1 ? one : part, w,
                                                 halo_opts(kernel, n1, n2),
                                                 f));
                    });
}

TEST(PlaneHalo, MotifKernelsShipIdenticalPlaneNativeBytes) {
  const Graph g = fixtures::gnp(18, 0.3, 4646);
  const auto colors = fixtures::draw_colors(g.num_vertices(), 3, 47);
  const auto motif = fixtures::draw_motif(colors, kHaloK, 48);
  const auto part = partition::multilevel_partition(g, 2);
  const auto one = partition::block_partition(g, 1);
  check_plane_halos("motif", partition::build_part_views(g, part), kHaloK - 1,
                    1,
                    [&](const auto& f, Kernel kernel, int n1,
                        std::uint32_t n2) {
                      return halo_run(midas_motif(g, n1 == 1 ? one : part,
                                                  colors, motif,
                                                  halo_opts(kernel, n1, n2),
                                                  f));
                    });
}

// ---------------------------------------------------------------------------
// Fixed-width, neighbour-first folds: every width, sparse rows
// ---------------------------------------------------------------------------

/// Calls fn(l, GFSmall(l)) for every width the bit-sliced kernels lift to a
/// compile-time constant (gf::detail_bs::dispatch_width's 15 bodies).
template <typename Fn>
void at_every_width(Fn&& fn) {
  for (int l = 2; l <= 16; ++l) fn(l, gf::GFSmall(l));
}

constexpr int kFoldK = 6;  // 64 iterations: N2 = 36 leaves base 36 unaligned

/// Scalar and bit-sliced runs of one distributed engine must agree on the
/// answer, clocks, messages and halo bytes at every width and at N2 in
/// {8, 36, 64} (whole blocks, an unaligned phase base, one full block).
template <typename RunFn>
void check_kernels_every_width(const char* engine, RunFn&& run) {
  at_every_width([&](int l, const gf::GFSmall& f) {
    for (const std::uint32_t n2 : {8u, 36u, 64u}) {
      const std::string tag = std::string(engine) +
                              " l=" + std::to_string(l) +
                              " N2=" + std::to_string(n2);
      const HaloRun scalar = run(f, Kernel::kScalar, n2);
      const HaloRun sliced = run(f, Kernel::kBitsliced, n2);
      EXPECT_EQ(sliced.answer, scalar.answer) << tag;
      EXPECT_EQ(sliced.vclocks, scalar.vclocks) << tag;
      EXPECT_EQ(sliced.stats.messages_sent, scalar.stats.messages_sent)
          << tag;
      EXPECT_EQ(sliced.stats.bytes_sent, scalar.stats.bytes_sent) << tag;
    }
  });
}

MidasOptions fold_opts(Kernel kernel, std::uint32_t n2) {
  MidasOptions o = par_opts(kFoldK, 4, 2, n2, kernel, 31);
  o.max_rounds = 2;
  o.early_exit = false;
  return o;
}

/// Colors over a palette of 3 where the motif uses only colors 0 and 1:
/// every vertex of color 2 has shade mask 0, so its leaf and every layer
/// above it are zero and the fold's zero-row skips run.
struct InertColorMotif {
  std::vector<std::uint32_t> colors;
  std::vector<std::uint32_t> motif;
};

InertColorMotif inert_color_motif(graph::VertexId n, int k,
                                  std::uint64_t seed) {
  InertColorMotif m{fixtures::draw_colors(n, 3, seed), {}};
  for (int s = 0; s < k; ++s)
    m.motif.push_back(static_cast<std::uint32_t>(s % 2));
  return m;
}

/// Scan weights that are all zero except one vertex's: the weight axis is
/// mostly empty rows.
std::vector<std::uint32_t> one_heavy_vertex(graph::VertexId n,
                                            graph::VertexId heavy) {
  std::vector<std::uint32_t> w(n, 0);
  w[heavy] = 3;
  return w;
}

TEST(NeighbourFold, DistributedMotifKernelsAgreeAtEveryWidth) {
  const Graph g = fixtures::gnp(16, 0.3, 5151);
  const auto m = inert_color_motif(g.num_vertices(), kFoldK, 52);
  ASSERT_NE(std::count(m.colors.begin(), m.colors.end(), 2u), 0);
  const auto part = partition::multilevel_partition(g, 2);
  check_kernels_every_width(
      "motif", [&](const auto& f, Kernel kernel, std::uint32_t n2) {
        return halo_run(
            midas_motif(g, part, m.colors, m.motif, fold_opts(kernel, n2), f));
      });
}

TEST(NeighbourFold, DistributedScanKernelsAgreeAtEveryWidth) {
  const Graph g = fixtures::gnp(12, 0.35, 5353);
  std::vector<std::uint32_t> dense(g.num_vertices());
  Xoshiro256 rng(54);
  for (auto& x : dense) x = static_cast<std::uint32_t>(rng.below(3));
  auto sparse = one_heavy_vertex(g.num_vertices(), 5);
  const auto part = partition::multilevel_partition(g, 2);
  for (const auto* w : {&dense, &sparse})
    check_kernels_every_width(
        w == &dense ? "scan" : "scan-one-heavy",
        [&](const auto& f, Kernel kernel, std::uint32_t n2) {
          return halo_run(midas_scan(g, part, *w, fold_opts(kernel, n2), f));
        });
}

TEST(NeighbourFold, SequentialMotifRoundTotalsMatchScalarAtEveryWidth) {
  const Graph g = fixtures::gnp(16, 0.3, 5555);
  // k = 7: 128 iterations, so the sequential detector folds two blocks.
  const auto m = inert_color_motif(g.num_vertices(), 7, 56);
  at_every_width([&](int l, const gf::GFSmall& f) {
    const auto scalar = detect_motif_seq(
        g, m.colors, m.motif, seq_opts(7, Kernel::kScalar, 60 + l), f);
    const auto sliced = detect_motif_seq(
        g, m.colors, m.motif, seq_opts(7, Kernel::kBitsliced, 60 + l), f);
    EXPECT_EQ(sliced.round_totals, scalar.round_totals) << "l=" << l;
    EXPECT_EQ(sliced.found_round, scalar.found_round) << "l=" << l;
    EXPECT_EQ(sliced.iterations, scalar.iterations) << "l=" << l;
  });
}

TEST(NeighbourFold, SequentialScanTablesMatchScalarAtEveryWidth) {
  const Graph g = fixtures::gnp(12, 0.35, 5757);
  std::vector<std::uint32_t> dense(g.num_vertices());
  Xoshiro256 rng(58);
  for (auto& x : dense) x = static_cast<std::uint32_t>(rng.below(3));
  auto sparse = one_heavy_vertex(g.num_vertices(), 3);
  at_every_width([&](int l, const gf::GFSmall& f) {
    for (const auto* w : {&dense, &sparse}) {
      ScanOptions o;
      o.k = 7;  // 128 iterations: two 64-lane blocks per round
      o.seed = 700 + static_cast<std::uint64_t>(l);
      o.max_rounds = 1;  // one round's table is that round's non-zero cells
      o.kernel = Kernel::kScalar;
      const auto scalar = detect_scan_seq(g, *w, o, f);
      o.kernel = Kernel::kBitsliced;
      const auto sliced = detect_scan_seq(g, *w, o, f);
      EXPECT_EQ(sliced.feasible, scalar.feasible)
          << "l=" << l << (w == &dense ? " dense" : " one-heavy");
    }
  });
}

// ---------------------------------------------------------------------------
// Batch-width blocks: 8/16/32/64-lane plane words
// ---------------------------------------------------------------------------

/// Bit b of every plane of a W-plane block, as a field element.
template <typename W>
gf::BitslicedGF::value_type lane_of(const W* block, int l, int b) {
  gf::BitslicedGF::value_type out = 0;
  for (int p = 0; p < l; ++p)
    out = static_cast<gf::BitslicedGF::value_type>(
        out | (((block[p] >> b) & 1u) << p));
  return out;
}

/// live_mask and shade_block at one plane word, for every base in
/// [0, 256) — the multiples of the lane count, other multiples of 8 and
/// every unaligned base — against their per-lane definitions.
template <typename W>
void check_word_parallel_leaves(Xoshiro256& rng) {
  constexpr int kLanes = gf::detail_bs::kLanesOf<W>;
  const gf::GFSmall f(11);
  const gf::BitslicedGF bs(f);
  constexpr int k = 10;  // shades 6..9 come from the high bits of t
  for (int trial = 0; trial < 4; ++trial) {
    const auto v = static_cast<std::uint32_t>(rng());
    const auto mask = static_cast<std::uint32_t>(rng.below(1u << k));
    std::vector<gf::BitslicedGF::value_type> us(k);
    for (auto& u : us)
      u = static_cast<gf::BitslicedGF::value_type>(rng.below(f.order()));
    for (std::uint64_t base = 0; base < 256; ++base)
      for (const int lanes : {kLanes, kLanes - 3, 1}) {
        const std::string tag = "W=" + std::to_string(kLanes) +
                                " base=" + std::to_string(base) +
                                " lanes=" + std::to_string(lanes);
        const W live = gf::BitslicedGF::live_mask<W>(v, base, lanes);
        W block[16];
        detail_motif::shade_block(bs, block, us.data(), mask, k, base, lanes);
        for (int b = 0; b < kLanes; ++b) {
          const auto t = static_cast<std::uint32_t>(base) +
                         static_cast<std::uint32_t>(b);
          const bool want_live =
              b < lanes && (std::popcount(v & t) & 1) == 0;
          ASSERT_EQ(((live >> b) & 1u) != 0, want_live) << tag << " " << b;
          const auto want_shade =
              b < lanes ? detail_motif::shade_value(f, us.data(), mask, t)
                        : gf::BitslicedGF::value_type{0};
          ASSERT_EQ(lane_of(block, bs.words(), b), want_shade)
              << tag << " lane " << b;
        }
      }
  }
}

TEST(NarrowBlocks, LiveMaskAndShadeBlockMatchPerLaneAtEveryBaseAndWord) {
  Xoshiro256 rng(8181);
  check_word_parallel_leaves<std::uint8_t>(rng);
  check_word_parallel_leaves<std::uint16_t>(rng);
  check_word_parallel_leaves<std::uint32_t>(rng);
  check_word_parallel_leaves<std::uint64_t>(rng);
}

TEST(NarrowBlocks, DispatchPicksTheNarrowestWordThatHoldsTheBatch) {
  auto lanes_for = [](std::uint64_t batch) {
    return gf::detail_bs::dispatch_word(batch, [](auto wt) {
      return gf::detail_bs::kLanesOf<typename decltype(wt)::type>;
    });
  };
  EXPECT_EQ(lanes_for(1), 8);
  EXPECT_EQ(lanes_for(8), 8);
  EXPECT_EQ(lanes_for(9), 16);
  EXPECT_EQ(lanes_for(16), 16);
  EXPECT_EQ(lanes_for(17), 32);
  EXPECT_EQ(lanes_for(32), 32);
  EXPECT_EQ(lanes_for(33), 64);
  EXPECT_EQ(lanes_for(1024), 64);
}

constexpr int kNarrowK = 6;  // 64 iterations

/// N2 values whose phases cover full and partial words of every type and
/// unaligned bases: 1, 5 (uint8_t partial), 8 (full), 12 (uint16_t partial
/// plus a 4-lane tail), 16 (full), 24 (uint32_t partial, base 24, and a
/// full uint16_t tail at base 48), 32 (full), 33 (a partial uint64_t block
/// and a 31-lane uint32_t one at base 33).
constexpr std::uint32_t kNarrowN2[] = {1, 5, 8, 12, 16, 24, 32, 33};

/// Scalar and bit-sliced runs of one distributed engine agree on the
/// answer or table, clocks, messages and halo bytes at every l and every
/// narrow N2.
template <typename RunFn>
void check_narrow_kernels(const char* engine, RunFn&& run) {
  at_every_width([&](int l, const gf::GFSmall& f) {
    for (const std::uint32_t n2 : kNarrowN2) {
      const std::string tag = std::string(engine) +
                              " l=" + std::to_string(l) +
                              " N2=" + std::to_string(n2);
      const HaloRun scalar = run(f, Kernel::kScalar, n2);
      const HaloRun sliced = run(f, Kernel::kBitsliced, n2);
      EXPECT_EQ(sliced.answer, scalar.answer) << tag;
      EXPECT_EQ(sliced.vclocks, scalar.vclocks) << tag;
      EXPECT_EQ(sliced.stats.messages_sent, scalar.stats.messages_sent)
          << tag;
      EXPECT_EQ(sliced.stats.bytes_sent, scalar.stats.bytes_sent) << tag;
    }
  });
}

MidasOptions narrow_opts(Kernel kernel, std::uint32_t n2) {
  MidasOptions o = par_opts(kNarrowK, 4, 2, n2, kernel, 41);
  o.max_rounds = 1;
  o.early_exit = false;
  return o;
}

TEST(NarrowBlocks, DistributedKPathKernelsAgreeAtEveryWidthAndBatch) {
  const Graph g = fixtures::gnp(16, 0.25, 8282);
  const auto part = partition::multilevel_partition(g, 2);
  check_narrow_kernels(
      "kpath", [&](const auto& f, Kernel kernel, std::uint32_t n2) {
        return halo_run(midas_kpath(g, part, narrow_opts(kernel, n2), f));
      });
}

TEST(NarrowBlocks, DistributedKTreeKernelsAgreeAtEveryWidthAndBatch) {
  const Graph g = fixtures::gnp(16, 0.25, 8383);
  Xoshiro256 rng(84);
  const TreeDecomposition td(graph::random_tree(kNarrowK, rng), 0);
  const auto part = partition::multilevel_partition(g, 2);
  check_narrow_kernels(
      "ktree", [&](const auto& f, Kernel kernel, std::uint32_t n2) {
        return halo_run(midas_ktree(g, part, td, narrow_opts(kernel, n2), f));
      });
}

TEST(NarrowBlocks, DistributedScanKernelsAgreeAtEveryWidthAndBatch) {
  const Graph g = fixtures::gnp(12, 0.35, 8585);
  std::vector<std::uint32_t> w(g.num_vertices());
  Xoshiro256 rng(86);
  for (auto& x : w) x = static_cast<std::uint32_t>(rng.below(3));
  const auto part = partition::multilevel_partition(g, 2);
  check_narrow_kernels(
      "scan", [&](const auto& f, Kernel kernel, std::uint32_t n2) {
        return halo_run(midas_scan(g, part, w, narrow_opts(kernel, n2), f));
      });
}

TEST(NarrowBlocks, DistributedMotifKernelsAgreeAtEveryWidthAndBatch) {
  const Graph g = fixtures::gnp(16, 0.3, 8787);
  const auto m = inert_color_motif(g.num_vertices(), kNarrowK, 88);
  const auto part = partition::multilevel_partition(g, 2);
  check_narrow_kernels(
      "motif", [&](const auto& f, Kernel kernel, std::uint32_t n2) {
        return halo_run(midas_motif(g, part, m.colors, m.motif,
                                    narrow_opts(kernel, n2), f));
      });
}

/// The sequential drivers run one block of 2^k lanes per round: k = 3, 4
/// and 5 fill a uint8_t, uint16_t and uint32_t word exactly.
TEST(NarrowBlocks, SequentialDriversMatchScalarOnEveryNarrowWord) {
  const Graph g = fixtures::gnp(14, 0.3, 8989);
  std::vector<std::uint32_t> w(g.num_vertices());
  Xoshiro256 rng(90);
  for (auto& x : w) x = static_cast<std::uint32_t>(rng.below(3));
  at_every_width([&](int l, const gf::GFSmall& f) {
    for (const int k : {3, 4, 5}) {
      const std::string tag =
          "l=" + std::to_string(l) + " k=" + std::to_string(k);
      const std::uint64_t seed = 900 + static_cast<std::uint64_t>(l * 8 + k);
      auto so = seq_opts(k, Kernel::kScalar, seed);
      so.max_rounds = 3;
      so.early_exit = false;
      auto sb = so;
      sb.kernel = Kernel::kBitsliced;

      const auto ps = detect_kpath_seq(g, so, f);
      const auto pb = detect_kpath_seq(g, sb, f);
      EXPECT_EQ(pb.round_totals, ps.round_totals) << "kpath " << tag;

      const TreeDecomposition td(
          graph::random_tree(static_cast<graph::VertexId>(k), rng), 0);
      const auto ts = detect_ktree_seq(g, td, so, f);
      const auto tb = detect_ktree_seq(g, td, sb, f);
      EXPECT_EQ(tb.round_totals, ts.round_totals) << "ktree " << tag;

      const auto m = inert_color_motif(g.num_vertices(), k, seed);
      const auto ms = detect_motif_seq(g, m.colors, m.motif, so, f);
      const auto mb = detect_motif_seq(g, m.colors, m.motif, sb, f);
      EXPECT_EQ(mb.round_totals, ms.round_totals) << "motif " << tag;

      ScanOptions co;
      co.k = k;
      co.seed = seed;
      co.max_rounds = 1;
      co.kernel = Kernel::kScalar;
      const auto cs = detect_scan_seq(g, w, co, f);
      co.kernel = Kernel::kBitsliced;
      const auto cb = detect_scan_seq(g, w, co, f);
      EXPECT_EQ(cb.feasible, cs.feasible) << "scan " << tag;
    }
  });
}

}  // namespace
}  // namespace midas::core
