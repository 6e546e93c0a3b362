// Sequential multilinear detection (paper Section III, Algorithm 1, and the
// per-application polynomials of Sections III-D and V).
//
// All three detectors share the same skeleton: per round, draw hash-derived
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
// Each detector exists in two kernels selected by DetectOptions::kernel:
// the scalar reference path (one field element at a time) and a bit-sliced
// path that evaluates 64 consecutive iterations per step over
// gf::BitslicedGF (see src/gf/bitsliced.hpp and docs/ALGORITHM.md section
// 6). Both kernels produce bit-identical per-round accumulators — the
// bit-sliced path only regroups the same XORs — which the tests assert.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/hashrand.hpp"
#include "core/layered_fold.hpp"
#include "core/schedule.hpp"
#include "core/tree_template.hpp"
#include "gf/bitsliced.hpp"
#include "gf/field.hpp"
#include "graph/csr.hpp"
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

namespace detail_seq {

/// The id a detector hashes vertex i by: ids[i], or i itself when `ids` is
/// empty (see detect_kpath_seq).
struct HashIds {
  std::span<const graph::VertexId> ids;

  HashIds(const graph::Graph& g, std::span<const graph::VertexId> hash_ids)
      : ids(hash_ids) {
    MIDAS_REQUIRE(ids.empty() || ids.size() == g.num_vertices(),
                  "hash ids: none, or one per vertex");
  }
  [[nodiscard]] std::uint32_t operator()(graph::VertexId i) const {
    return ids.empty() ? i : ids[i];
  }
};

/// Decide scalar vs bitsliced for this (field, request) pair; rejects an
/// explicit bitsliced request on a field the engine cannot mirror.
template <typename F>
[[nodiscard]] inline bool use_bitsliced(const F& f, Kernel kernel) {
  if constexpr (gf::Bitsliceable<F>) {
    if (kernel == Kernel::kScalar) return false;
    return f.bits() <= 16;
  } else {
    (void)f;
    MIDAS_REQUIRE(kernel != Kernel::kBitsliced,
                  "kernel=bitsliced requires a GF(2^l) field with l <= 16 "
                  "that exposes modulus() (GF256 or GFSmall)");
    return false;
  }
}

// ---------------------------------------------------------------------------
// k-path kernels
// ---------------------------------------------------------------------------

template <gf::GaloisField F>
DetectResult kpath_scalar(const graph::Graph& g, const DetectOptions& opt,
                          const F& f, HashIds id) {
  const int k = opt.k;
  const graph::VertexId n = g.num_vertices();
  DetectResult res;

  using V = typename F::value_type;
  const std::uint64_t iters = std::uint64_t{1} << k;
  std::vector<std::uint32_t> v(n);
  std::vector<std::uint8_t> live(n);
  std::vector<V> cur(n), next(n);
  // r[j * n + i] is the coefficient of vertex i at path level j (1-based).
  std::vector<V> r(static_cast<std::size_t>(k) * n);

  for (int round = 0; round < opt.rounds(); ++round) {
    MIDAS_TRACE_SPAN("seq.round", {"round", round});
    for (graph::VertexId i = 0; i < n; ++i) {
      v[i] = v_vector(opt.seed, round, id(i), k);
      for (int j = 1; j <= k; ++j)
        r[static_cast<std::size_t>(j - 1) * n + i] =
            field_coeff(f, opt.seed, round, id(i),
                        static_cast<std::uint32_t>(j));
    }
    V total = f.zero();
    for (std::uint64_t t = 0; t < iters; ++t) {
      // The liveness flag [<v_i, t> = 0] is per (vertex, iteration); compute
      // it once here and reuse it across all k levels.
      for (graph::VertexId i = 0; i < n; ++i) {
        live[i] = !inner_product_odd(v[i], static_cast<std::uint32_t>(t));
        cur[i] = live[i] ? r[i] : f.zero();
      }
      for (int j = 2; j <= k; ++j) {
        const V* rj = r.data() + static_cast<std::size_t>(j - 1) * n;
        for (graph::VertexId i = 0; i < n; ++i) {
          if (!live[i]) {
            next[i] = f.zero();  // x_i evaluates to 0 this iteration
            continue;
          }
          V acc = f.zero();
          for (graph::VertexId u : g.neighbors(i)) acc = f.add(acc, cur[u]);
          next[i] = f.mul(rj[i], acc);
        }
        std::swap(cur, next);
      }
      V sum = f.zero();
      for (graph::VertexId i = 0; i < n; ++i) sum = f.add(sum, cur[i]);
      total = f.add(total, sum);
      ++res.iterations;
    }
    ++res.rounds_run;
    res.round_totals.push_back(static_cast<std::uint64_t>(total));
    if (total != f.zero()) {
      if (!res.found) res.found_round = round;  // first nonzero round wins
      res.found = true;
      if (opt.early_exit) return res;
    }
  }
  return res;
}

template <gf::Bitsliceable F>
DetectResult kpath_bitsliced(const graph::Graph& g, const DetectOptions& opt,
                             const F& f, HashIds id) {
  const int k = opt.k;
  const graph::VertexId n = g.num_vertices();
  DetectResult res;

  using V = typename F::value_type;
  using BS = gf::BitslicedGF;
  const BS bs(f);
  const std::uint64_t iters = std::uint64_t{1} << k;

  std::vector<std::uint32_t> v(n);
  std::vector<V> r0(n);  // level-1 coefficients (broadcast into the base case)
  // mats[(j - 2) * n + i]: multiply-by-r_{i,j} matrix for levels 2..k.
  std::vector<BS::Matrix> mats(static_cast<std::size_t>(k - 1) * n);

  // Lift (plane word, plane count) to compile-time constants so the
  // per-block loops below unroll and vectorize (see dispatch_block); the
  // word follows the 2^k iterations of a round.
  gf::detail_bs::dispatch_block(iters, f, [&](auto wt, auto lc) {
    using W = typename decltype(wt)::type;
    constexpr int LC = decltype(lc)::value;
    constexpr std::uint64_t kLanes = gf::detail_bs::kLanesOf<W>;
    std::vector<W> live(n);
    // cur/next hold one block (LC words) per vertex.
    std::vector<W> cur(static_cast<std::size_t>(n) * LC);
    std::vector<W> next(static_cast<std::size_t>(n) * LC);

    for (int round = 0; round < opt.rounds(); ++round) {
      MIDAS_TRACE_SPAN("seq.round", {"round", round});
      for (graph::VertexId i = 0; i < n; ++i) {
        v[i] = v_vector(opt.seed, round, id(i), k);
        r0[i] = field_coeff(f, opt.seed, round, id(i), 1);
        for (int j = 2; j <= k; ++j)
          mats[static_cast<std::size_t>(j - 2) * n + i] =
              bs.matrix(field_coeff(f, opt.seed, round, id(i),
                                    static_cast<std::uint32_t>(j)));
      }
      V total = f.zero();
      for (std::uint64_t base = 0; base < iters; base += kLanes) {
        const int lanes =
            static_cast<int>(std::min<std::uint64_t>(kLanes, iters - base));
        for (graph::VertexId i = 0; i < n; ++i) {
          live[i] = BS::live_mask<W>(v[i], base, lanes);
          BS::broadcast_w<LC>(&cur[static_cast<std::size_t>(i) * LC], r0[i],
                              live[i]);
        }
        for (int j = 2; j <= k; ++j) {
          const BS::Matrix* mj =
              mats.data() + static_cast<std::size_t>(j - 2) * n;
          for (graph::VertexId i = 0; i < n; ++i) {
            W* out = &next[static_cast<std::size_t>(i) * LC];
            if (live[i] == 0) {
              BS::clear_w<LC>(out);
              continue;
            }
            W acc[LC] = {};
            for (graph::VertexId u : g.neighbors(i))
              BS::add_into_w<LC>(acc, &cur[static_cast<std::size_t>(u) * LC]);
            BS::mul_matrix_masked_w<LC>(out, mj[i], acc, live[i]);
          }
          std::swap(cur, next);
        }
        total = f.add(total,
                      static_cast<V>(gf::fold_xor_rows<LC>(cur.data(), n, LC)));
        res.iterations += static_cast<std::uint64_t>(lanes);
      }
      ++res.rounds_run;
      res.round_totals.push_back(static_cast<std::uint64_t>(total));
      if (total != f.zero()) {
        if (!res.found) res.found_round = round;  // first nonzero round wins
        res.found = true;
        if (opt.early_exit) return;
      }
    }
  });
  return res;
}

}  // namespace detail_seq

/// Human-readable name of the kernel a (field, request) pair resolves to —
/// what the CLI and bench headers print to make outputs self-describing.
template <gf::GaloisField F>
[[nodiscard]] inline const char* kernel_name(const F& f, Kernel kernel) {
  return detail_seq::use_bitsliced(f, kernel) ? "bitsliced" : "scalar";
}

/// Decide whether `g` contains a simple path on exactly k vertices.
///
/// `hash_ids`, when nonempty, names the id each vertex draws its randomness
/// by: vertex i hashes as hash_ids[i] (one distinct id per vertex), as a
/// distributed rank hashes its local vertices by PartView::vertices.
/// Detecting on an induced subgraph with its vertices' ids in the parent
/// graph thus draws the very hashes the parent would (the witness peel's
/// restricted oracle, core/witness.cpp). Empty means vertex i hashes as i.
/// The same holds for every sequential detector below.
template <gf::GaloisField F>
DetectResult detect_kpath_seq(const graph::Graph& g, const DetectOptions& opt,
                              const F& f = F{},
                              std::span<const graph::VertexId> hash_ids = {}) {
  const int k = opt.k;
  MIDAS_REQUIRE(k >= 1 && k <= 28, "k must be in [1,28]");
  const graph::VertexId n = g.num_vertices();
  const detail_seq::HashIds id(g, hash_ids);
  DetectResult res;
  if (n == 0) return res;
  if (k == 1) {  // any vertex is a 1-path
    res.found = n > 0;
    res.found_round = 0;
    return res;
  }
  const bool bitsliced = detail_seq::use_bitsliced(f, opt.kernel);
  MIDAS_TRACE_SPAN(bitsliced ? "seq.kpath.bitsliced" : "seq.kpath.scalar",
                   {"k", k});
  if (bitsliced) {
    if constexpr (gf::Bitsliceable<F>)
      return detail_seq::kpath_bitsliced(g, opt, f, id);
  }
  return detail_seq::kpath_scalar(g, opt, f, id);
}

// ---------------------------------------------------------------------------
// k-tree kernels
// ---------------------------------------------------------------------------

namespace detail_seq {

template <gf::GaloisField F>
DetectResult ktree_scalar(const graph::Graph& g, const TreeDecomposition& td,
                          const DetectOptions& opt, const F& f, HashIds id) {
  const int k = td.k();
  const graph::VertexId n = g.num_vertices();
  DetectResult res;

  using V = typename F::value_type;
  const std::uint64_t iters = std::uint64_t{1} << k;
  const auto& subs = td.subtemplates();
  std::vector<std::uint32_t> v(n);
  // vals[s][i]: polynomial value of subtemplate s at vertex i.
  std::vector<std::vector<V>> vals(subs.size(), std::vector<V>(n));

  for (int round = 0; round < opt.rounds(); ++round) {
    MIDAS_TRACE_SPAN("seq.round", {"round", round});
    for (graph::VertexId i = 0; i < n; ++i)
      v[i] = v_vector(opt.seed, round, id(i), k);
    V total = f.zero();
    for (std::uint64_t t = 0; t < iters; ++t) {
      for (std::size_t s = 0; s < subs.size(); ++s) {
        const auto& sub = subs[s];
        auto& out = vals[s];
        if (sub.child1 < 0) {
          // Leaf: x_i scaled by a coefficient unique to this template
          // position (leaf ids are unique within the decomposition).
          for (graph::VertexId i = 0; i < n; ++i) {
            const bool live =
                !inner_product_odd(v[i], static_cast<std::uint32_t>(t));
            out[i] = live ? field_coeff(f, opt.seed, round, id(i),
                                        static_cast<std::uint32_t>(s))
                          : f.zero();
          }
        } else {
          const auto& own = vals[static_cast<std::size_t>(sub.child1)];
          const auto& nbr = vals[static_cast<std::size_t>(sub.child2)];
          for (graph::VertexId i = 0; i < n; ++i) {
            if (own[i] == f.zero()) {
              out[i] = f.zero();
              continue;
            }
            V acc = f.zero();
            for (graph::VertexId u : g.neighbors(i)) acc = f.add(acc, nbr[u]);
            out[i] = f.mul(own[i], acc);
          }
        }
      }
      V sum = f.zero();
      const auto& root_vals = vals[static_cast<std::size_t>(td.root_id())];
      for (graph::VertexId i = 0; i < n; ++i) sum = f.add(sum, root_vals[i]);
      total = f.add(total, sum);
      ++res.iterations;
    }
    ++res.rounds_run;
    res.round_totals.push_back(static_cast<std::uint64_t>(total));
    if (total != f.zero()) {
      if (!res.found) res.found_round = round;  // first nonzero round wins
      res.found = true;
      if (opt.early_exit) return res;
    }
  }
  return res;
}

template <gf::Bitsliceable F>
DetectResult ktree_bitsliced(const graph::Graph& g,
                             const TreeDecomposition& td,
                             const DetectOptions& opt, const F& f,
                             HashIds id) {
  const int k = td.k();
  const graph::VertexId n = g.num_vertices();
  DetectResult res;

  using V = typename F::value_type;
  using BS = gf::BitslicedGF;
  const BS bs(f);
  const std::uint64_t iters = std::uint64_t{1} << k;
  const auto& subs = td.subtemplates();

  std::vector<std::uint32_t> v(n);
  // leafc[s][i]: leaf coefficient (a pure function of round/i/s, hoisted
  // out of the iteration loop; the scalar kernel recomputes it per t).
  std::vector<std::vector<V>> leafc(subs.size());

  gf::detail_bs::dispatch_block(iters, f, [&](auto wt, auto lc) {
    using W = typename decltype(wt)::type;
    constexpr int LC = decltype(lc)::value;
    constexpr std::uint64_t kLanes = gf::detail_bs::kLanesOf<W>;
    std::vector<W> live(n);
    // vals[s]: one block per vertex for subtemplate s.
    std::vector<std::vector<W>> vals(
        subs.size(), std::vector<W>(static_cast<std::size_t>(n) * LC));

    for (int round = 0; round < opt.rounds(); ++round) {
      MIDAS_TRACE_SPAN("seq.round", {"round", round});
      for (graph::VertexId i = 0; i < n; ++i)
        v[i] = v_vector(opt.seed, round, id(i), k);
      for (std::size_t s = 0; s < subs.size(); ++s) {
        if (subs[s].child1 >= 0) continue;
        leafc[s].resize(n);
        for (graph::VertexId i = 0; i < n; ++i)
          leafc[s][i] = field_coeff(f, opt.seed, round, id(i),
                                    static_cast<std::uint32_t>(s));
      }
      V total = f.zero();
      for (std::uint64_t base = 0; base < iters; base += kLanes) {
        const int lanes =
            static_cast<int>(std::min<std::uint64_t>(kLanes, iters - base));
        for (graph::VertexId i = 0; i < n; ++i)
          live[i] = BS::live_mask<W>(v[i], base, lanes);
        for (std::size_t s = 0; s < subs.size(); ++s) {
          const auto& sub = subs[s];
          auto& out = vals[s];
          if (sub.child1 < 0) {
            for (graph::VertexId i = 0; i < n; ++i)
              BS::broadcast_w<LC>(&out[static_cast<std::size_t>(i) * LC],
                                  leafc[s][i], live[i]);
          } else {
            const auto& own = vals[static_cast<std::size_t>(sub.child1)];
            const auto& nbr = vals[static_cast<std::size_t>(sub.child2)];
            for (graph::VertexId i = 0; i < n; ++i) {
              W* out_i = &out[static_cast<std::size_t>(i) * LC];
              const W* own_i = &own[static_cast<std::size_t>(i) * LC];
              if (BS::is_zero_w<LC>(own_i)) {
                BS::clear_w<LC>(out_i);
                continue;
              }
              W acc[LC] = {};
              for (graph::VertexId u : g.neighbors(i))
                BS::add_into_w<LC>(acc,
                                   &nbr[static_cast<std::size_t>(u) * LC]);
              bs.mul_w<LC>(out_i, own_i, acc);
            }
          }
        }
        total = f.add(total, static_cast<V>(gf::fold_xor_rows<LC>(
                                 vals[static_cast<std::size_t>(td.root_id())]
                                     .data(),
                                 n, LC)));
        res.iterations += static_cast<std::uint64_t>(lanes);
      }
      ++res.rounds_run;
      res.round_totals.push_back(static_cast<std::uint64_t>(total));
      if (total != f.zero()) {
        if (!res.found) res.found_round = round;  // first nonzero round wins
        res.found = true;
        if (opt.early_exit) return;
      }
    }
  });
  return res;
}

}  // namespace detail_seq

/// Decide whether `g` contains a (non-induced) embedding of the template
/// tree described by `td`. `hash_ids` as for detect_kpath_seq.
template <gf::GaloisField F>
DetectResult detect_ktree_seq(const graph::Graph& g,
                              const TreeDecomposition& td,
                              const DetectOptions& opt, const F& f = F{},
                              std::span<const graph::VertexId> hash_ids = {}) {
  const int k = td.k();
  MIDAS_REQUIRE(k >= 1 && k <= 28, "template size must be in [1,28]");
  const graph::VertexId n = g.num_vertices();
  const detail_seq::HashIds id(g, hash_ids);
  DetectResult res;
  if (n == 0) return res;
  const bool bitsliced = detail_seq::use_bitsliced(f, opt.kernel);
  MIDAS_TRACE_SPAN(bitsliced ? "seq.ktree.bitsliced" : "seq.ktree.scalar",
                   {"k", k});
  if (bitsliced) {
    if constexpr (gf::Bitsliceable<F>)
      return detail_seq::ktree_bitsliced(g, td, opt, f, id);
  }
  return detail_seq::ktree_scalar(g, td, opt, f, id);
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

namespace detail_seq {

template <gf::GaloisField F>
void scan_scalar(const graph::Graph& g,
                 const std::vector<std::uint32_t>& weights,
                 const ScanOptions& opt, const F& f, HashIds id,
                 FeasibilityTable& table) {
  const int k = opt.k;
  const graph::VertexId n = g.num_vertices();
  using V = typename F::value_type;
  const std::uint64_t iters = std::uint64_t{1} << k;
  const std::uint32_t width = table.max_weight + 1;
  std::vector<std::uint32_t> v(n);
  // vals[j][z * n + i]: value of P(i, j, z) at the current iteration.
  std::vector<std::vector<V>> vals(static_cast<std::size_t>(k) + 1);
  for (int j = 1; j <= k; ++j)
    vals[static_cast<std::size_t>(j)].assign(
        static_cast<std::size_t>(width) * n, f.zero());
  // accum[j][z]: XOR over iterations of sum_i P(i, j, z).
  std::vector<std::vector<V>> accum(static_cast<std::size_t>(k) + 1,
                                    std::vector<V>(width, f.zero()));

  for (int round = 0; round < opt.rounds(); ++round) {
    MIDAS_TRACE_SPAN("seq.round", {"round", round});
    for (graph::VertexId i = 0; i < n; ++i)
      v[i] = v_vector(opt.seed, round, id(i), k);
    for (auto& a : accum) std::fill(a.begin(), a.end(), f.zero());

    for (std::uint64_t t = 0; t < iters; ++t) {
      // Base case: P(i, 1, w(i)) = r_i * [v_i ⟂ t].
      auto& base = vals[1];
      std::fill(base.begin(), base.end(), f.zero());
      for (graph::VertexId i = 0; i < n; ++i) {
        const bool live =
            !inner_product_odd(v[i], static_cast<std::uint32_t>(t));
        if (live)
          base[static_cast<std::size_t>(weights[i]) * n + i] =
              field_coeff(f, opt.seed, round, id(i), 1);
      }
      // Inductive step over sizes.
      for (int j = 2; j <= k; ++j) {
        auto& out = vals[static_cast<std::size_t>(j)];
        std::fill(out.begin(), out.end(), f.zero());
        for (graph::VertexId i = 0; i < n; ++i) {
          for (graph::VertexId u : g.neighbors(i)) {
            const V sig = sigma_coeff(f, opt.seed, round, id(i), id(u),
                                      static_cast<std::uint32_t>(j));
            for (int j1 = 1; j1 <= j - 1; ++j1) {
              const auto& own = vals[static_cast<std::size_t>(j1)];
              const auto& oth = vals[static_cast<std::size_t>(j - j1)];
              for (std::uint32_t z = 0; z < width; ++z) {
                V acc = f.zero();
                for (std::uint32_t z1 = 0; z1 <= z; ++z1) {
                  const V a = own[static_cast<std::size_t>(z1) * n + i];
                  if (a == f.zero()) continue;
                  const V b =
                      oth[static_cast<std::size_t>(z - z1) * n + u];
                  acc = f.add(acc, f.mul(a, b));
                }
                if (acc != f.zero()) {
                  auto& cell = out[static_cast<std::size_t>(z) * n + i];
                  cell = f.add(cell, f.mul(sig, acc));
                }
              }
            }
          }
        }
      }
      // Accumulate sums over vertices for every (j, z). Size-j detection
      // needs its monomials counted over a 2^j-element subgroup: summing a
      // degree-j term over all 2^k iterations counts it 2^{k-rank} times
      // with rank <= j < k — always even, i.e. it always cancels. So the
      // size-j accumulator only folds iterations t < 2^j, for which the
      // inner products <v_i, t> see exactly the low j bits of v_i; this is
      // degree-j detection with j-dimensional vectors at no extra cost.
      // (The paper's Algorithm 5 sidesteps this by only returning size k.)
      for (int j = 1; j <= k; ++j) {
        if (t >= (std::uint64_t{1} << j)) continue;
        const auto& layer = vals[static_cast<std::size_t>(j)];
        auto& acc = accum[static_cast<std::size_t>(j)];
        for (std::uint32_t z = 0; z < width; ++z) {
          V sum = f.zero();
          for (graph::VertexId i = 0; i < n; ++i)
            sum = f.add(sum, layer[static_cast<std::size_t>(z) * n + i]);
          acc[z] = f.add(acc[z], sum);
        }
      }
    }
    // Fold this round's detections into the table (true entries stay true).
    for (int j = 1; j <= k; ++j)
      for (std::uint32_t z = 0; z < width; ++z)
        if (accum[static_cast<std::size_t>(j)][z] != f.zero())
          table.feasible[static_cast<std::size_t>(j)][z] = true;
    if (opt.watch_j > 0 && table.at(opt.watch_j, opt.watch_z)) break;
  }
}

template <gf::Bitsliceable F>
void scan_bitsliced(const graph::Graph& g,
                    const std::vector<std::uint32_t>& weights,
                    const ScanOptions& opt, const F& f, HashIds id,
                    FeasibilityTable& table) {
  const int k = opt.k;
  const graph::VertexId n = g.num_vertices();
  using V = typename F::value_type;
  using BS = gf::BitslicedGF;
  const BS bs(f);
  const std::uint64_t iters = std::uint64_t{1} << k;
  const std::uint32_t width = table.max_weight + 1;
  std::vector<std::uint32_t> v(n);
  std::vector<V> c1(n);  // base-case coefficients, hoisted per round
  std::vector<std::vector<V>> accum(static_cast<std::size_t>(k) + 1,
                                    std::vector<V>(width, f.zero()));

  gf::detail_bs::dispatch_block(iters, f, [&](auto wt, auto lc) {
    using W = typename decltype(wt)::type;
    constexpr int LC = decltype(lc)::value;
    constexpr std::uint64_t kLanes = gf::detail_bs::kLanesOf<W>;
    // vals[j][(z * n + i) * LC .. +LC): the block of P(i, j, z).
    std::vector<std::vector<W>> vals(static_cast<std::size_t>(k) + 1);
    for (int j = 1; j <= k; ++j)
      vals[static_cast<std::size_t>(j)].assign(
          static_cast<std::size_t>(width) * n * LC, 0);
    detail_fold::LayeredFold<W> fold;

    for (int round = 0; round < opt.rounds(); ++round) {
      MIDAS_TRACE_SPAN("seq.round", {"round", round});
      for (graph::VertexId i = 0; i < n; ++i) {
        v[i] = v_vector(opt.seed, round, id(i), k);
        c1[i] = field_coeff(f, opt.seed, round, id(i), 1);
      }
      for (auto& a : accum) std::fill(a.begin(), a.end(), f.zero());

      for (std::uint64_t base_t = 0; base_t < iters; base_t += kLanes) {
        const int lanes =
            static_cast<int>(std::min<std::uint64_t>(kLanes, iters - base_t));
        auto& base = vals[1];
        std::fill(base.begin(), base.end(), W{0});
        for (graph::VertexId i = 0; i < n; ++i)
          BS::broadcast_w<LC>(
              &base[(static_cast<std::size_t>(weights[i]) * n + i) * LC],
              c1[i], BS::live_mask<W>(v[i], base_t, lanes));
        // Neighbour-first, fixed-width fold (core/layered_fold.hpp): vertex
        // i's row in layer j starts at word i * LC, weight rows n * LC
        // apart.
        for (int j = 2; j <= k; ++j) {
          auto& out = vals[static_cast<std::size_t>(j)];
          std::fill(out.begin(), out.end(), W{0});
          fold.level(j, width, 1, static_cast<std::size_t>(n) * LC, LC);
          for (graph::VertexId i = 0; i < n; ++i) {
            const std::size_t row = static_cast<std::size_t>(i) * LC;
            if (!fold.template vertex<LC>([&](int j1) {
                  return vals[static_cast<std::size_t>(j1)].data() + row;
                }))
              continue;
            for (graph::VertexId u : g.neighbors(i)) {
              const BS::Matrix sig = bs.matrix(
                  sigma_coeff(f, opt.seed, round, id(i), id(u),
                              static_cast<std::uint32_t>(j)));
              fold.template neighbour<LC>(sig, [&](int j2) {
                return vals[static_cast<std::size_t>(j2)].data() +
                       static_cast<std::size_t>(u) * LC;
              });
            }
            fold.template finish<LC>(bs, out.data() + row);
          }
        }
        // Size-j accumulators only fold iterations t < 2^j (see the scalar
        // kernel's comment); within this block that is a prefix lane mask.
        for (int j = 1; j <= k; ++j) {
          const std::uint64_t lim = std::uint64_t{1} << j;
          if (base_t >= lim) continue;
          const auto jmask = static_cast<W>(gf::detail_bs::low_lanes(
              static_cast<int>(std::min<std::uint64_t>(lanes, lim - base_t))));
          auto& acc = accum[static_cast<std::size_t>(j)];
          for (std::uint32_t z = 0; z < width; ++z)
            acc[z] = f.add(acc[z],
                           static_cast<V>(gf::fold_xor_rows<LC>(
                               vals[static_cast<std::size_t>(j)].data() +
                                   static_cast<std::size_t>(z) * n * LC,
                               n, LC, jmask)));
        }
      }
      for (int j = 1; j <= k; ++j)
        for (std::uint32_t z = 0; z < width; ++z)
          if (accum[static_cast<std::size_t>(j)][z] != f.zero())
            table.feasible[static_cast<std::size_t>(j)][z] = true;
      if (opt.watch_j > 0 && table.at(opt.watch_j, opt.watch_z)) break;
    }
  });
}

}  // namespace detail_seq

/// Build the (size, weight) feasibility table for connected subgraphs of up
/// to `k` vertices, where vertex i contributes integer weight weights[i].
/// `hash_ids` as for detect_kpath_seq (σ hashes both endpoints' ids).
template <gf::GaloisField F>
FeasibilityTable detect_scan_seq(
    const graph::Graph& g, const std::vector<std::uint32_t>& weights,
    const ScanOptions& opt, const F& f = F{},
    std::span<const graph::VertexId> hash_ids = {}) {
  const int k = opt.k;
  MIDAS_REQUIRE(k >= 1 && k <= 28, "k must be in [1,28]");
  const graph::VertexId n = g.num_vertices();
  MIDAS_REQUIRE(weights.size() == n, "one weight per vertex required");
  const detail_seq::HashIds id(g, hash_ids);

  // Maximum achievable weight of a k-subset bounds the table width.
  const std::uint32_t wmax = max_weight_of(weights, k);

  FeasibilityTable table;
  table.k = k;
  table.max_weight = wmax;
  table.feasible.assign(static_cast<std::size_t>(k) + 1,
                        std::vector<bool>(wmax + 1, false));
  if (n == 0) return table;

  const bool bitsliced = detail_seq::use_bitsliced(f, opt.kernel);
  MIDAS_TRACE_SPAN(bitsliced ? "seq.scan.bitsliced" : "seq.scan.scalar",
                   {"k", k});
  if (bitsliced) {
    if constexpr (gf::Bitsliceable<F>) {
      detail_seq::scan_bitsliced(g, weights, opt, f, id, table);
      return table;
    }
  }
  detail_seq::scan_scalar(g, weights, opt, f, id, table);
  return table;
}

}  // namespace midas::core
