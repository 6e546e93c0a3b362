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
// (no 2^j cutoff: only the full-size layer is sieved). The shade plan, the
// leaf values and both phase bodies live in core/phase_bodies.hpp
// (detail::motif_rank); the detector below and the distributed engine in
// detect_par.hpp run those same bodies, so all execution tiers and both
// kernels agree bit-for-bit.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/detect_seq.hpp"
#include "core/phase_bodies.hpp"
#include "gf/field.hpp"
#include "graph/csr.hpp"
#include "partition/partitioned_graph.hpp"
#include "runtime/trace.hpp"
#include "util/require.hpp"

namespace midas::core {

namespace detail {
/// Iterations per phase of a sequential motif run: motif hashes σ and
/// builds its matrix per edge and level once per phase, so a whole round
/// is one phase up to k = 10; the cap bounds the per-vertex blocks beyond.
inline constexpr std::uint64_t kMotifSeqBatch = 1024;
}  // namespace detail

/// Sequential Graph Motif detection on the one-part `view`
/// (partition::induced_view): is there a connected subgraph whose color
/// multiset equals `motif`? Local vertex li hashes as view.vertices[li] and
/// has color colors[view.vertices[li]].
template <gf::GaloisField F>
DetectResult detect_motif_seq(const partition::PartView& view,
                              const std::vector<std::uint32_t>& colors,
                              const std::vector<std::uint32_t>& motif,
                              const DetectOptions& opt, const F& f = F{}) {
  for (graph::VertexId id : view.vertices)
    MIDAS_REQUIRE(id < colors.size(), "one color per vertex required");
  const ShadePlan plan = make_shade_plan(colors, motif);
  const bool bitsliced = detail::use_bitsliced(f, opt.kernel);
  MIDAS_TRACE_SPAN(bitsliced ? "seq.motif.bitsliced" : "seq.motif.scalar",
                   {"k", plan.k});
  return detail::run_sequential(
      view, f, plan.k, opt.rounds(), bitsliced, 1,
      detail::stop_on_found(opt.early_exit),
      [&](const detail::PhaseRank& pr, auto&& rounds) {
        detail::motif_rank(pr, rounds, f, plan, opt.seed);
      },
      detail::kMotifSeqBatch);
}

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
  return detect_motif_seq(detail_seq::whole_view(g, hash_ids),
                          detail_seq::by_hash_id(colors, hash_ids), motif,
                          opt, f);
}

}  // namespace midas::core
