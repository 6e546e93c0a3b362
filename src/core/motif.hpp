// Constrained multilinear detection — Graph Motif (Koutis arXiv:1206.3483,
// Björklund–Kaski–Kowalik arXiv:1209.1082).
//
// Question: does g contain a *connected* subgraph on k vertices whose color
// multiset equals the queried motif? The unconstrained k-MLD sieve cannot
// ask this — it only certifies that *some* multilinear degree-k term
// survives. The constrained construction adds per-color multiplicity bounds
// to the sieve itself: give the motif k "shades" (color c owns mu(c) of
// them, sum mu = k) and substitute every vertex variable by a random linear
// form over the shades of its own color,
//
//   x_i  ->  d_i(t) = XOR_{s in bits(t) & mask_i} u_{i,s},
//
// where mask_i is the bitmask of shades belonging to color(i) and u_{i,s}
// are fresh hash-derived GF(2^l) coefficients. Summing the connectivity
// polynomial over all 2^k shade subsets t keeps exactly the terms whose
// shade image is *all* of [k] (any proper subset appears an even number of
// times and cancels in characteristic 2). A surviving term therefore picks
// k distinct shades, one per vertex occurrence, each from its vertex's own
// color — i.e. the vertex set is (a) multilinear (a repeated vertex admits
// a shade-swap pairing that cancels) and (b) uses color c exactly mu(c)
// times. The survivor's coefficient is (parse-tree sigma sum) x
// prod_c perm(U_c), a nonzero polynomial of degree <= 2k-1 in the random
// values, so by Schwartz–Zippel a round errs with probability at most
// (2k-1)/2^l; "no" answers are always correct. The driver keeps the
// (4/5)^rounds amplification of the unconstrained sieve, which is valid
// whenever (2k-1)/2^l <= 4/5 (the service validates this bound).
//
// The connectivity polynomial is the scan-statistics recurrence without the
// weight axis: P(i,1) = d_i(t) and
//
//   P(i,j) = sum_{u in N(i)} sigma_{i,u,j} sum_{j1=1}^{j-1} P(i,j1) P(u,j-j1)
//
// with the decision value sum_i P(i,k) XOR-folded over *all* 2^k subsets
// (no 2^j cutoff: only the full-size layer is sieved). Both kernels below
// produce bit-identical per-round accumulators, and the distributed driver
// in detect_par.hpp replays the same hashes, so all execution tiers agree
// bit-for-bit.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/detect_seq.hpp"
#include "core/hashrand.hpp"
#include "core/layered_fold.hpp"
#include "gf/bitsliced.hpp"
#include "gf/field.hpp"
#include "graph/csr.hpp"
#include "runtime/trace.hpp"
#include "util/require.hpp"

namespace midas::core {

/// Canonical shade assignment for a motif query. Shades are the k bit
/// positions of the iteration counter: shade s carries the s-th smallest
/// color of the motif multiset (ties broken by position, so each color owns
/// a contiguous run of shades), and a vertex's mask is the run of its own
/// color — empty when the color does not occur in the motif, which makes
/// the vertex inert in every iteration. Sorting makes the plan a pure
/// function of the *multiset*, so permuted motif lists are the same query.
struct ShadePlan {
  int k = 0;
  std::vector<std::uint32_t> shade_color;  // shade s -> color id (sorted)
  std::vector<std::uint32_t> vertex_mask;  // per vertex: allowed-shade bits
};

[[nodiscard]] inline ShadePlan make_shade_plan(
    const std::vector<std::uint32_t>& colors,
    const std::vector<std::uint32_t>& motif) {
  ShadePlan plan;
  plan.k = static_cast<int>(motif.size());
  MIDAS_REQUIRE(plan.k >= 1 && plan.k <= 28,
                "motif size must be in [1, 28]");
  plan.shade_color = motif;
  std::sort(plan.shade_color.begin(), plan.shade_color.end());
  std::unordered_map<std::uint32_t, std::uint32_t> mask_of;
  for (int s = 0; s < plan.k; ++s)
    mask_of[plan.shade_color[static_cast<std::size_t>(s)]] |= 1u << s;
  plan.vertex_mask.resize(colors.size(), 0);
  for (std::size_t i = 0; i < colors.size(); ++i) {
    const auto it = mask_of.find(colors[i]);
    if (it != mask_of.end()) plan.vertex_mask[i] = it->second;
  }
  return plan;
}

namespace detail_motif {

/// The scalar leaf value d_i(t): XOR of the shade coefficients selected by
/// the iteration's shade subset. `us[s]` must hold u_{i,s} for every shade
/// s in `mask` (other slots are never read).
template <typename V, typename F>
[[nodiscard]] inline V shade_value(const F& f, const V* us,
                                   std::uint32_t mask,
                                   std::uint32_t t) noexcept {
  V d = f.zero();
  std::uint32_t m = mask & t;
  while (m != 0) {
    d = f.add(d, us[__builtin_ctz(m)]);
    m &= m - 1;
  }
  return d;
}

/// Lane-periodic patterns for the six low shade bits: bit b of
/// kShadePeriod[s] is (b >> s) & 1, i.e. whether iteration t has shade s
/// set, for t & 63 == b.
inline constexpr std::uint64_t kShadePeriod[6] = {
    0xAAAAAAAAAAAAAAAAULL, 0xCCCCCCCCCCCCCCCCULL, 0xF0F0F0F0F0F0F0F0ULL,
    0xFF00FF00FF00FF00ULL, 0xFFFF0000FFFF0000ULL, 0xFFFFFFFF00000000ULL};

/// Fill one block of W-bit planes with leaf values d_i for iterations
/// [base, base + lanes), lanes <= the lanes of W. `us` holds the vertex's
/// shade coefficients widened to the bitsliced value type. Word-parallel at
/// any base: the low shades follow t & 63, so their periodic masks rotate
/// by base & 63; the shades >= 6 follow t >> 6, constant over the lanes
/// before t crosses a multiple of 64 and over those after (a broadcast of
/// their XOR on each side). Produces the same exact field elements as
/// shade_value lane by lane.
template <gf::detail_bs::PlaneWord W>
void shade_block(const gf::BitslicedGF& bs, W* dst,
                 const gf::BitslicedGF::value_type* us, std::uint32_t mask,
                 int k, std::uint64_t base, int lanes) {
  using BS = gf::BitslicedGF;
  const int L = bs.words();
  if (mask == 0) {
    for (int p = 0; p < L; ++p) dst[p] = 0;
    return;
  }
  const auto sh = static_cast<unsigned>(base & 63u);
  const std::uint64_t live = gf::detail_bs::low_lanes(lanes);
  const std::uint64_t first = gf::detail_bs::first_chunk(sh);
  auto high_shades = [&](std::uint64_t h) {
    BS::value_type c = 0;
    for (int s = 6; s < k; ++s)
      if (((mask >> s) & 1u) != 0 && ((h >> (s - 6)) & 1u) != 0) c ^= us[s];
    return c;
  };
  const BS::value_type c_first = high_shades(base >> 6);
  const BS::value_type c_next = high_shades((base >> 6) + 1);
  // The low shades in the mask: rotated pattern and coefficient each.
  std::uint64_t pat[6] = {};
  BS::value_type coef[6] = {};
  int low = 0;
  for (int s = 0; s < 6 && s < k; ++s)
    if (((mask >> s) & 1u) != 0) {
      pat[low] = std::rotr(kShadePeriod[s], static_cast<int>(sh));
      coef[low++] = us[s];
    }
  for (int p = 0; p < L; ++p) {
    std::uint64_t plane = (((c_first >> p) & 1u) != 0 ? first : 0) ^
                          (((c_next >> p) & 1u) != 0 ? ~first : 0);
    for (int i = 0; i < low; ++i)
      if (((coef[i] >> p) & 1u) != 0) plane ^= pat[i];
    dst[p] = static_cast<W>(plane & live);
  }
}

template <gf::GaloisField F>
DetectResult motif_scalar(const graph::Graph& g, const ShadePlan& plan,
                          const DetectOptions& opt, const F& f,
                          detail_seq::HashIds id) {
  const int k = plan.k;
  const graph::VertexId n = g.num_vertices();
  DetectResult res;

  using V = typename F::value_type;
  const std::uint64_t iters = std::uint64_t{1} << k;
  // us[i * k + s] = u_{i,s}; only slots with shade s in mask_i are used.
  std::vector<V> us(static_cast<std::size_t>(n) * k);
  std::vector<std::vector<V>> vals(static_cast<std::size_t>(k) + 1);
  for (int j = 1; j <= k; ++j)
    vals[static_cast<std::size_t>(j)].resize(n);

  for (int round = 0; round < opt.rounds(); ++round) {
    MIDAS_TRACE_SPAN("seq.round", {"round", round});
    for (graph::VertexId i = 0; i < n; ++i) {
      const std::uint32_t mask = plan.vertex_mask[i];
      for (int s = 0; s < k; ++s)
        if (((mask >> s) & 1u) != 0)
          us[static_cast<std::size_t>(i) * k + s] = shade_coeff(
              f, opt.seed, round, id(i), static_cast<std::uint32_t>(s));
    }
    V total = f.zero();
    for (std::uint64_t t = 0; t < iters; ++t) {
      auto& base = vals[1];
      for (graph::VertexId i = 0; i < n; ++i)
        base[i] = shade_value(f, us.data() + static_cast<std::size_t>(i) * k,
                              plan.vertex_mask[i],
                              static_cast<std::uint32_t>(t));
      for (int j = 2; j <= k; ++j) {
        auto& out = vals[static_cast<std::size_t>(j)];
        std::fill(out.begin(), out.end(), f.zero());
        for (graph::VertexId i = 0; i < n; ++i) {
          for (graph::VertexId u : g.neighbors(i)) {
            const V sig = sigma_coeff(f, opt.seed, round, id(i), id(u),
                                      static_cast<std::uint32_t>(j));
            V conv = f.zero();
            for (int j1 = 1; j1 <= j - 1; ++j1)
              conv = f.add(
                  conv, f.mul(vals[static_cast<std::size_t>(j1)][i],
                              vals[static_cast<std::size_t>(j - j1)][u]));
            out[i] = f.add(out[i], f.mul(sig, conv));
          }
        }
      }
      V sum = f.zero();
      const auto& top = vals[static_cast<std::size_t>(k)];
      for (graph::VertexId i = 0; i < n; ++i) sum = f.add(sum, top[i]);
      total = f.add(total, sum);
      ++res.iterations;
    }
    ++res.rounds_run;
    res.round_totals.push_back(static_cast<std::uint64_t>(total));
    if (total != f.zero()) {
      if (!res.found) res.found_round = round;
      res.found = true;
      if (opt.early_exit) return res;
    }
  }
  return res;
}

template <gf::Bitsliceable F>
DetectResult motif_bitsliced(const graph::Graph& g, const ShadePlan& plan,
                             const DetectOptions& opt, const F& f,
                             detail_seq::HashIds id) {
  using BS = gf::BitslicedGF;
  using V = typename F::value_type;
  const BS bs(f);
  const int k = plan.k;
  const graph::VertexId n = g.num_vertices();
  DetectResult res;

  const std::uint64_t iters = std::uint64_t{1} << k;
  std::vector<BS::value_type> us(static_cast<std::size_t>(n) * k);

  // The blocks' plane word follows the 2^k iterations of a round.
  gf::detail_bs::dispatch_block(iters, f, [&](auto wt, auto lc) {
    using W = typename decltype(wt)::type;
    constexpr int LC = decltype(lc)::value;
    constexpr std::uint64_t kLanes = gf::detail_bs::kLanesOf<W>;
    const std::size_t nblocks = (iters + kLanes - 1) / kLanes;
    const std::size_t wpv = nblocks * LC;
    std::vector<std::vector<W>> vals(static_cast<std::size_t>(k) + 1);
    for (int j = 1; j <= k; ++j)
      vals[static_cast<std::size_t>(j)].resize(
          static_cast<std::size_t>(n) * wpv);
    detail_fold::LayeredFold<W> fold;

    for (int round = 0; round < opt.rounds(); ++round) {
      MIDAS_TRACE_SPAN("seq.round", {"round", round});
      for (graph::VertexId i = 0; i < n; ++i) {
        const std::uint32_t mask = plan.vertex_mask[i];
        for (int s = 0; s < k; ++s)
          if (((mask >> s) & 1u) != 0)
            us[static_cast<std::size_t>(i) * k + s] =
                static_cast<BS::value_type>(shade_coeff(
                    f, opt.seed, round, id(i), static_cast<std::uint32_t>(s)));
      }
      auto& base = vals[1];
      for (graph::VertexId i = 0; i < n; ++i)
        for (std::size_t blk = 0; blk < nblocks; ++blk)
          shade_block(bs, &base[static_cast<std::size_t>(i) * wpv + blk * LC],
                      us.data() + static_cast<std::size_t>(i) * k,
                      plan.vertex_mask[i], k, blk * kLanes,
                      static_cast<int>(std::min(kLanes, iters - blk * kLanes)));
      // Neighbour-first, fixed-width fold (core/layered_fold.hpp), the same
      // formulation as the distributed engine's.
      for (int j = 2; j <= k; ++j) {
        auto& out = vals[static_cast<std::size_t>(j)];
        std::fill(out.begin(), out.end(), W{0});
        fold.level(j, 1, nblocks, 0, LC);
        for (graph::VertexId i = 0; i < n; ++i) {
          const std::size_t row = static_cast<std::size_t>(i) * wpv;
          if (!fold.template vertex<LC>([&](int j1) {
                return vals[static_cast<std::size_t>(j1)].data() + row;
              }))
            continue;
          for (graph::VertexId u : g.neighbors(i)) {
            const BS::Matrix sig =
                bs.matrix(static_cast<BS::value_type>(
                    sigma_coeff(f, opt.seed, round, id(i), id(u),
                                static_cast<std::uint32_t>(j))));
            fold.template neighbour<LC>(sig, [&](int j2) {
              return vals[static_cast<std::size_t>(j2)].data() +
                     static_cast<std::size_t>(u) * wpv;
            });
          }
          fold.template finish<LC>(bs, out.data() + row);
        }
      }
      V total = f.zero();
      for (std::size_t blk = 0; blk < nblocks; ++blk)
        total = f.add(total,
                      static_cast<V>(gf::fold_xor_rows<LC>(
                          vals[static_cast<std::size_t>(k)].data() + blk * LC,
                          n, wpv)));
      res.iterations += iters;
      ++res.rounds_run;
      res.round_totals.push_back(static_cast<std::uint64_t>(total));
      if (total != f.zero()) {
        if (!res.found) res.found_round = round;
        res.found = true;
        if (opt.early_exit) return;
      }
    }
  });
  return res;
}

}  // namespace detail_motif

/// Sequential Graph Motif detection: is there a connected subgraph whose
/// color multiset equals `motif`? `colors[i]` is vertex i's color;
/// `motif.size()` is the subgraph size (DetectOptions::k is ignored).
/// "No" is always correct; a "yes" instance is missed with probability at
/// most (2k-1)/2^l per round (requires 2^l > 2k-1 to be meaningful; the
/// service enforces (2k-1)/2^l <= 4/5 so rounds() keeps its usual meaning).
/// `hash_ids` as for detect_kpath_seq (σ hashes both endpoints' ids).
template <gf::GaloisField F>
DetectResult detect_motif_seq(const graph::Graph& g,
                              const std::vector<std::uint32_t>& colors,
                              const std::vector<std::uint32_t>& motif,
                              const DetectOptions& opt, const F& f = F{},
                              std::span<const graph::VertexId> hash_ids = {}) {
  MIDAS_REQUIRE(colors.size() == g.num_vertices(),
                "one color per vertex required");
  const ShadePlan plan = make_shade_plan(colors, motif);
  const detail_seq::HashIds id(g, hash_ids);
  if constexpr (gf::Bitsliceable<F>) {
    if (detail_seq::use_bitsliced(f, opt.kernel))
      return detail_motif::motif_bitsliced(g, plan, opt, f, id);
  } else {
    MIDAS_REQUIRE(opt.kernel != Kernel::kBitsliced,
                  "kernel=bitsliced requires a GF(2^l) field with l <= 16 "
                  "that exposes modulus() (GF256 or GFSmall)");
  }
  return detail_motif::motif_scalar(g, plan, opt, f, id);
}

}  // namespace midas::core
