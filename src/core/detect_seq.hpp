// Sequential multilinear detection (paper Section III, Algorithm 1, and the
// per-application polynomials of Sections III-D and V).
//
// Every detector evaluates one recurrence: per round, draw hash-derived
// randomness (v_i in Z2^k per vertex; field coefficients per template
// position); for each iteration t in [0, 2^k) evaluate the application's
// polynomial with x_i replaced by its iteration value and XOR the result
// into a round accumulator; a nonzero accumulator proves a multilinear
// (square-free) degree-k term, i.e. the subgraph exists. "No" answers are
// always correct; "yes" is produced with probability >= 1/5 per round
// (Theorem 1), driven below epsilon by running multiple rounds.
//
// Implementation note (documented in DESIGN.md): we implement Williams'
// GF(2^l) refinement — the variant the paper says it implements. The
// iteration value of x_i is the indicator [<v_i, t> = 0] scaled by a fresh
// coefficient per (vertex, template position); the factor-2 of the integer
// matrix representation ("1 + (-1)^{v*t}") is dropped because it is the
// characteristic. The per-position coefficients are what break the
// direction/automorphism pairing of witnesses that would otherwise cancel
// in characteristic 2.
//
// MIDAS with one phase group of one part is the sequential algorithm, so
// the detectors here own no kernels: each runs the phase bodies of
// core/phase_bodies.hpp — one scalar and one bit-sliced body per
// recurrence, the very ones the distributed engine runs — on a one-part
// seat (detail::run_sequential) over a partition::induced_view with no
// ghosts, in phases of one 64-lane block. DetectOptions::kernel picks the
// body (detail::use_bitsliced, shared with the engine); both produce
// bit-identical per-round accumulators — the bit-sliced body only regroups
// the same XORs (docs/ALGORITHM.md section 6) — which the tests assert.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <numeric>
#include <optional>
#include <span>
#include <vector>

#include "core/errors.hpp"
#include "core/phase_bodies.hpp"
#include "core/schedule.hpp"
#include "core/tree_template.hpp"
#include "gf/bitsliced.hpp"
#include "gf/field.hpp"
#include "graph/csr.hpp"
#include "partition/partitioned_graph.hpp"
#include "runtime/trace.hpp"
#include "util/require.hpp"

namespace midas::core {

/// Which inner-loop implementation a detector runs. kAuto picks bitsliced
/// whenever the field supports it (GF(2^l), l <= 16, modulus() exposed) and
/// falls back to scalar otherwise; kBitsliced on an unsupported field is an
/// error.
enum class Kernel { kAuto, kScalar, kBitsliced };

struct DetectOptions {
  int k = 4;                 // subgraph size (path/tree vertices)
  double epsilon = 0.05;     // failure probability bound for "yes" instances
  std::uint64_t seed = 1;    // randomness seed; fixes the whole run
  int max_rounds = 0;        // if > 0, overrides the epsilon-derived count
  bool early_exit = true;    // stop after the first successful round
  Kernel kernel = Kernel::kAuto;  // inner-loop implementation

  [[nodiscard]] int rounds() const {
    return max_rounds > 0 ? max_rounds : rounds_for_epsilon(epsilon);
  }
};

struct DetectResult {
  bool found = false;
  int rounds_run = 0;
  int found_round = -1;          // first round that returned nonzero
  std::uint64_t iterations = 0;  // total polynomial evaluations performed
  /// Per-round XOR accumulator values (field elements widened to 64 bits),
  /// one entry per round run — the cross-kernel bit-exactness witness.
  std::vector<std::uint64_t> round_totals;
};

namespace detail {

/// The kernel choice of every detector and engine: scalar vs bit-sliced
/// for this (field, request) pair. kAuto takes the bit-sliced body wherever
/// the field has bit planes; an explicit bit-sliced request that cannot be
/// met is an options error.
template <typename F>
[[nodiscard]] inline bool use_bitsliced(const F& f, Kernel kernel) {
  if constexpr (gf::Bitsliceable<F>) {
    return kernel != Kernel::kScalar && f.bits() <= 16;
  } else {
    (void)f;
    require_options(kernel != Kernel::kBitsliced,
                    "kernel=bitsliced requires a GF(2^l) field with l <= 16 "
                    "that exposes modulus() (GF256 or GFSmall)");
    return false;
  }
}

/// Iterations per phase of a sequential run: one 64-lane block.
inline constexpr std::uint64_t kSeqBatch = 64;

/// The sequential round driver: `rank_body(pr, rounds)` (a phase body of
/// core/phase_bodies.hpp) on a one-part seat with no Comm — no thread, no
/// charge, no exchange — over `view`. Each round calls begin_round, then
/// the phase body over [0, 2^k) in phases of min(2^k, max_batch)
/// iterations, XORed into an accumulator of `acc_len` slots; then
/// `stop(round, acc)` reads the round's accumulator and says whether to
/// stop. The record follows the first round with a nonzero slot;
/// round_totals holds every round's acc[0].
template <gf::GaloisField F, typename Stop, typename RankBody>
DetectResult run_sequential(const partition::PartView& view, const F& f,
                            int k, int rounds, bool bitsliced,
                            std::size_t acc_len, Stop&& stop,
                            RankBody&& rank_body,
                            std::uint64_t max_batch = kSeqBatch) {
  using V = typename F::value_type;
  std::optional<gf::BitslicedGF> bse;
  if constexpr (gf::Bitsliceable<F>) {
    if (bitsliced) bse.emplace(f);
  }
  const PhaseRank pr{.view = view, .bs = bse ? &*bse : nullptr};
  const std::uint64_t iters = std::uint64_t{1} << k;
  const std::uint64_t batch = std::min(iters, max_batch);
  std::vector<V> acc(acc_len);
  DetectResult res;
  rank_body(pr, [&](auto&& begin_round, auto&& phase_scalar,
                    auto&& phase_bs) {
    for (int round = 0; round < rounds; ++round) {
      MIDAS_TRACE_SPAN("seq.round", {"round", round});
      begin_round(round);
      std::fill(acc.begin(), acc.end(), f.zero());
      for (std::uint64_t q0 = 0; q0 < iters; q0 += batch)
        run_phase(f, pr.bs, phase_scalar, phase_bs, q0, batch,
                  std::span<V>(acc));
      res.iterations += iters;
      ++res.rounds_run;
      res.round_totals.push_back(static_cast<std::uint64_t>(acc[0]));
      if (!res.found && std::any_of(acc.begin(), acc.end(), [&](const V& x) {
            return x != f.zero();
          })) {
        res.found = true;
        res.found_round = round;
      }
      if (stop(round, std::span<const V>(acc))) break;
    }
  });
  return res;
}

/// The stop rule of the decision detectors: a nonzero round ends the run
/// under early exit.
[[nodiscard]] inline auto stop_on_found(bool early_exit) {
  return [early_exit](int, auto acc) { return early_exit && acc[0] != 0; };
}

}  // namespace detail

namespace detail_seq {

/// The one-part view of all of g (partition::induced_view): vertex i
/// hashes as hash_ids[i], or as i when `hash_ids` is empty.
[[nodiscard]] inline partition::PartView whole_view(
    const graph::Graph& g, std::span<const graph::VertexId> hash_ids) {
  std::vector<graph::VertexId> all(g.num_vertices());
  std::iota(all.begin(), all.end(), graph::VertexId{0});
  return partition::induced_view(g, all, hash_ids);
}

/// Per-vertex values re-indexed by hash id (out[hash_ids[i]] = values[i]),
/// since a body reads vertex li's value at view.vertices[li].
[[nodiscard]] inline std::vector<std::uint32_t> by_hash_id(
    const std::vector<std::uint32_t>& values,
    std::span<const graph::VertexId> hash_ids) {
  if (hash_ids.empty()) return values;
  std::vector<std::uint32_t> out(
      static_cast<std::size_t>(
          *std::max_element(hash_ids.begin(), hash_ids.end())) +
          1,
      0);
  for (std::size_t i = 0; i < hash_ids.size(); ++i)
    out[hash_ids[i]] = values[i];
  return out;
}

}  // namespace detail_seq

/// Human-readable name of the kernel a (field, request) pair resolves to —
/// what the CLI and bench headers print to make outputs self-describing.
template <gf::GaloisField F>
[[nodiscard]] inline const char* kernel_name(const F& f, Kernel kernel) {
  return detail::use_bitsliced(f, kernel) ? "bitsliced" : "scalar";
}

/// Decide whether the one-part `view` (partition::induced_view) contains a
/// simple path on exactly k vertices; local vertex li hashes as
/// view.vertices[li]. The same holds for every view overload below.
template <gf::GaloisField F>
DetectResult detect_kpath_seq(const partition::PartView& view,
                              const DetectOptions& opt, const F& f = F{}) {
  const int k = opt.k;
  MIDAS_REQUIRE(k >= 1 && k <= 28, "k must be in [1,28]");
  DetectResult res;
  if (view.num_local() == 0) return res;
  if (k == 1) {  // any vertex is a 1-path
    res.found = true;
    res.found_round = 0;
    return res;
  }
  const bool bitsliced = detail::use_bitsliced(f, opt.kernel);
  MIDAS_TRACE_SPAN(bitsliced ? "seq.kpath.bitsliced" : "seq.kpath.scalar",
                   {"k", k});
  return detail::run_sequential(
      view, f, k, opt.rounds(), bitsliced, 1,
      detail::stop_on_found(opt.early_exit),
      [&](const detail::PhaseRank& pr, auto&& rounds) {
        detail::kpath_rank(pr, rounds, f, k, opt.seed);
      });
}

/// Decide whether `g` contains a simple path on exactly k vertices.
///
/// `hash_ids`, when nonempty, names the id each vertex draws its randomness
/// by: vertex i hashes as hash_ids[i] (one distinct id per vertex), as a
/// distributed rank hashes its local vertices by PartView::vertices.
/// Detecting on an induced subgraph with its vertices' ids in the parent
/// graph thus draws the very hashes the parent would. Empty means vertex i
/// hashes as i. The same holds for every sequential detector below.
template <gf::GaloisField F>
DetectResult detect_kpath_seq(const graph::Graph& g, const DetectOptions& opt,
                              const F& f = F{},
                              std::span<const graph::VertexId> hash_ids = {}) {
  return detect_kpath_seq(detail_seq::whole_view(g, hash_ids), opt, f);
}

/// Decide whether the one-part `view` contains a (non-induced) embedding
/// of the template tree described by `td`.
template <gf::GaloisField F>
DetectResult detect_ktree_seq(const partition::PartView& view,
                              const TreeDecomposition& td,
                              const DetectOptions& opt, const F& f = F{}) {
  const int k = td.k();
  MIDAS_REQUIRE(k >= 1 && k <= 28, "template size must be in [1,28]");
  if (view.num_local() == 0) return {};
  const bool bitsliced = detail::use_bitsliced(f, opt.kernel);
  MIDAS_TRACE_SPAN(bitsliced ? "seq.ktree.bitsliced" : "seq.ktree.scalar",
                   {"k", k});
  return detail::run_sequential(
      view, f, k, opt.rounds(), bitsliced, 1,
      detail::stop_on_found(opt.early_exit),
      [&](const detail::PhaseRank& pr, auto&& rounds) {
        detail::ktree_rank(pr, rounds, f, td, opt.seed);
      });
}

/// Decide whether `g` contains a (non-induced) embedding of the template
/// tree described by `td`. `hash_ids` as for detect_kpath_seq.
template <gf::GaloisField F>
DetectResult detect_ktree_seq(const graph::Graph& g,
                              const TreeDecomposition& td,
                              const DetectOptions& opt, const F& f = F{},
                              std::span<const graph::VertexId> hash_ids = {}) {
  return detect_ktree_seq(detail_seq::whole_view(g, hash_ids), td, opt, f);
}

// ---------------------------------------------------------------------------
// Scan statistics feasibility (paper Section V-B, Algorithm 5)
// ---------------------------------------------------------------------------

/// Largest total weight of any k vertices: the weight-axis bound of the
/// scan tables.
[[nodiscard]] inline std::uint32_t max_weight_of(
    const std::vector<std::uint32_t>& weights, int k) {
  std::vector<std::uint32_t> sorted(weights);
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  std::uint32_t sum = 0;
  for (int i = 0; i < k && i < static_cast<int>(sorted.size()); ++i)
    sum += sorted[static_cast<std::size_t>(i)];
  return sum;
}

/// feasible[j][z] == true  =>  g has a connected subgraph of exactly j
/// vertices with total (rounded) weight exactly z. "true" entries are
/// always correct ("no" entries may be false negatives with prob <= eps).
struct FeasibilityTable {
  int k = 0;
  std::uint32_t max_weight = 0;
  std::vector<std::vector<bool>> feasible;  // [j][z], j in [1,k]

  [[nodiscard]] bool at(int j, std::uint32_t z) const {
    return j >= 1 && j <= k && z <= max_weight &&
           feasible[static_cast<std::size_t>(j)][z];
  }
};

struct ScanOptions {
  int k = 4;               // maximum subgraph size
  double epsilon = 0.05;
  std::uint64_t seed = 1;
  int max_rounds = 0;
  /// If watch_j > 0, stop as soon as cell (watch_j, watch_z) is feasible —
  /// the witness-extraction oracle only needs one cell, and a "yes" needs
  /// ~log(5/4)^-1 expected rounds rather than the full amplification.
  int watch_j = 0;
  std::uint32_t watch_z = 0;
  Kernel kernel = Kernel::kAuto;  // inner-loop implementation

  [[nodiscard]] int rounds() const {
    return max_rounds > 0 ? max_rounds : rounds_for_epsilon(epsilon);
  }
};

/// The (size, weight) feasibility table of the one-part `view`, where
/// local vertex li contributes weight weights[view.vertices[li]]. The
/// weight axis is bounded by the view's own k heaviest vertices.
template <gf::GaloisField F>
FeasibilityTable detect_scan_seq(const partition::PartView& view,
                                 const std::vector<std::uint32_t>& weights,
                                 const ScanOptions& opt, const F& f = F{}) {
  const int k = opt.k;
  MIDAS_REQUIRE(k >= 1 && k <= 28, "k must be in [1,28]");
  std::vector<std::uint32_t> own(view.num_local());
  for (std::uint32_t li = 0; li < view.num_local(); ++li) {
    MIDAS_REQUIRE(view.vertices[li] < weights.size(),
                  "one weight per vertex required");
    own[li] = weights[view.vertices[li]];
  }
  const std::uint32_t width = max_weight_of(own, k) + 1;

  FeasibilityTable table;
  table.k = k;
  table.max_weight = width - 1;
  table.feasible.assign(static_cast<std::size_t>(k) + 1,
                        std::vector<bool>(width, false));
  if (view.num_local() == 0) return table;

  const bool bitsliced = detail::use_bitsliced(f, opt.kernel);
  MIDAS_TRACE_SPAN(bitsliced ? "seq.scan.bitsliced" : "seq.scan.scalar",
                   {"k", k});
  (void)detail::run_sequential(
      view, f, k, opt.rounds(), bitsliced,
      static_cast<std::size_t>(k + 1) * width,
      [&](int, auto acc) {
        // Fold this round's detections into the table (true entries stay
        // true); the accumulator holds one sum per (j, z).
        for (std::size_t i = width; i < acc.size(); ++i)
          if (acc[i] != 0) table.feasible[i / width][i % width] = true;
        return opt.watch_j > 0 && table.at(opt.watch_j, opt.watch_z);
      },
      [&](const detail::PhaseRank& pr, auto&& rounds) {
        detail::scan_rank(pr, rounds, f, k, opt.seed, weights, width);
      });
  return table;
}

/// Build the (size, weight) feasibility table for connected subgraphs of up
/// to `k` vertices, where vertex i contributes integer weight weights[i].
/// `hash_ids` as for detect_kpath_seq (σ hashes both endpoints' ids).
template <gf::GaloisField F>
FeasibilityTable detect_scan_seq(
    const graph::Graph& g, const std::vector<std::uint32_t>& weights,
    const ScanOptions& opt, const F& f = F{},
    std::span<const graph::VertexId> hash_ids = {}) {
  MIDAS_REQUIRE(weights.size() == g.num_vertices(),
                "one weight per vertex required");
  return detect_scan_seq(detail_seq::whole_view(g, hash_ids),
                         detail_seq::by_hash_id(weights, hash_ids), opt, f);
}

}  // namespace midas::core
