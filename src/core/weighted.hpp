// Weighted extensions (paper Problem 3, part 2: "the maximum weight of any
// multilinear term" — and the weighted k-path variant mentioned under
// Problem 1).
//
// The path polynomial is augmented with a weight axis — the k-path phase
// body (detail::kpath_rank) at width > 1: P(i, j, z) sums walks of length
// j ending at i whose vertex weights total z. The maximum z with a
// surviving degree-k multilinear term is the maximum weight of a simple
// k-path, with the usual one-sided error.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/detect_seq.hpp"
#include "gf/field.hpp"
#include "graph/csr.hpp"
#include "util/require.hpp"

namespace midas::core {

struct WeightedPathResult {
  /// Achievable total weights of simple k-paths ("true" is always correct).
  std::vector<bool> feasible_weight;
  /// Maximum achievable weight, if any k-path was detected.
  std::optional<std::uint32_t> max_weight;
};

/// Detect the achievable (and maximum) total vertex weight over simple
/// k-vertex paths. Weights must be small integers (use scan::round_weights
/// for real-valued inputs). Runs the k-path phase body (detail::kpath_rank)
/// at width max_weight_of + 1 — the body midas_weighted_kpath runs — on the
/// one-part view of g, every round (no early exit), with opt.kernel.
template <gf::GaloisField F>
WeightedPathResult max_weight_kpath_seq(
    const graph::Graph& g, const std::vector<std::uint32_t>& weights, int k,
    const DetectOptions& opt, const F& f = F{}) {
  MIDAS_REQUIRE(k >= 1 && k <= 24, "k must be in [1,24]");
  const graph::VertexId n = g.num_vertices();
  MIDAS_REQUIRE(weights.size() == n, "one weight per vertex required");

  const std::uint32_t width = max_weight_of(weights, k) + 1;
  WeightedPathResult res;
  res.feasible_weight.assign(width, false);
  if (n == 0) return res;

  (void)detail::run_sequential(
      detail_seq::whole_view(g, {}), f, k, opt.rounds(),
      detail::use_bitsliced(f, opt.kernel), width,
      [&](int, auto acc) {
        for (std::uint32_t z = 0; z < width; ++z)
          if (acc[z] != 0) res.feasible_weight[z] = true;
        return false;
      },
      [&](const detail::PhaseRank& pr, auto&& rounds) {
        detail::kpath_rank(pr, rounds, f, k, opt.seed, nullptr, weights,
                           width);
      });
  for (std::uint32_t z = 0; z < width; ++z)
    if (res.feasible_weight[z]) res.max_weight = z;
  return res;
}

/// Symmetric integer edge weights for a graph, defaulting to
/// `default_weight` for unset edges.
class EdgeWeights {
 public:
  explicit EdgeWeights(std::uint32_t default_weight = 1)
      : default_(default_weight) {}

  void set(graph::VertexId u, graph::VertexId v, std::uint32_t w) {
    map_[key(u, v)] = w;
  }
  [[nodiscard]] std::uint32_t get(graph::VertexId u,
                                  graph::VertexId v) const {
    const auto it = map_.find(key(u, v));
    return it == map_.end() ? default_ : it->second;
  }
  [[nodiscard]] std::uint32_t max_weight() const {
    std::uint32_t w = default_;
    for (const auto& [_, x] : map_) w = std::max(w, x);
    return w;
  }

 private:
  static std::uint64_t key(graph::VertexId u, graph::VertexId v) {
    if (u > v) std::swap(u, v);
    return (static_cast<std::uint64_t>(u) << 32) | v;
  }
  std::uint32_t default_;
  std::unordered_map<std::uint64_t, std::uint32_t> map_;
};

/// Detect the achievable (and maximum) total *edge* weight over simple
/// k-vertex paths (k-1 edges) — the "maximum weight embedding in a
/// weighted version of the graph" variant of Problem 1.
template <gf::GaloisField F>
WeightedPathResult max_edge_weight_kpath_seq(const graph::Graph& g,
                                             const EdgeWeights& weights,
                                             int k, const DetectOptions& opt,
                                             const F& f = F{}) {
  MIDAS_REQUIRE(k >= 1 && k <= 24, "k must be in [1,24]");
  const graph::VertexId n = g.num_vertices();

  const std::uint32_t wmax =
      static_cast<std::uint32_t>(k - 1) * weights.max_weight();
  const std::uint32_t width = wmax + 1;

  WeightedPathResult res;
  res.feasible_weight.assign(width, false);
  if (n == 0) return res;

  using V = typename F::value_type;
  const std::uint64_t iters = std::uint64_t{1} << k;
  std::vector<std::uint32_t> v(n);
  std::vector<V> cur(static_cast<std::size_t>(width) * n);
  std::vector<V> next(static_cast<std::size_t>(width) * n);
  std::vector<V> accum(width);

  for (int round = 0; round < opt.rounds(); ++round) {
    for (graph::VertexId i = 0; i < n; ++i)
      v[i] = v_vector(opt.seed, round, i, k);
    std::fill(accum.begin(), accum.end(), f.zero());

    for (std::uint64_t t = 0; t < iters; ++t) {
      std::fill(cur.begin(), cur.end(), f.zero());
      // Single vertex: zero edges, zero weight.
      for (graph::VertexId i = 0; i < n; ++i) {
        if (!inner_product_odd(v[i], static_cast<std::uint32_t>(t)))
          cur[i] = field_coeff(f, opt.seed, round, i, 1);
      }
      for (int j = 2; j <= k; ++j) {
        std::fill(next.begin(), next.end(), f.zero());
        for (graph::VertexId i = 0; i < n; ++i) {
          if (inner_product_odd(v[i], static_cast<std::uint32_t>(t)))
            continue;
          const V rj = field_coeff(f, opt.seed, round, i,
                                   static_cast<std::uint32_t>(j));
          for (graph::VertexId u : g.neighbors(i)) {
            const std::uint32_t we = weights.get(u, i);
            for (std::uint32_t z = we; z < width; ++z) {
              const V val = cur[static_cast<std::size_t>(z - we) * n + u];
              if (val == f.zero()) continue;
              auto& cell = next[static_cast<std::size_t>(z) * n + i];
              cell = f.add(cell, f.mul(rj, val));
            }
          }
        }
        std::swap(cur, next);
      }
      for (std::uint32_t z = 0; z < width; ++z) {
        V sum = f.zero();
        const V* row = cur.data() + static_cast<std::size_t>(z) * n;
        for (graph::VertexId i = 0; i < n; ++i) sum = f.add(sum, row[i]);
        accum[z] = f.add(accum[z], sum);
      }
    }
    for (std::uint32_t z = 0; z < width; ++z)
      if (accum[z] != f.zero()) res.feasible_weight[z] = true;
  }
  for (std::uint32_t z = 0; z < width; ++z)
    if (res.feasible_weight[z]) res.max_weight = z;
  return res;
}

}  // namespace midas::core
