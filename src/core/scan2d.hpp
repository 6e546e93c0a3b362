// Full Problem 2 scan feasibility: heterogeneous baselines.
//
// The paper's Problem 2 constrains the *baseline* count: find connected S
// maximizing F(W(S), B(S)) subject to B(S) <= k, where B is not |S| in
// general. Algorithm 5 (and scan/scan_statistics.hpp) use the unit-
// baseline shortcut B(S) = |S|. This header implements the general case:
// the DP carries two integer weight axes — rounded baseline y and rounded
// event weight z — per subgraph size j, and the result is the set of
// achievable (B(S), W(S)) pairs over connected subgraphs of at most
// `max_size` vertices. Any statistic F(W, B) is then maximized over the
// table, with the true heterogeneous B.
//
// Cost: O(2^s * m * s^2 * (B W)^2) per round with s = max_size — use
// rounded weights aggressively (scan::round_weights / step_for_total).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/detect_par.hpp"
#include "core/detect_seq.hpp"
#include "gf/field.hpp"
#include "graph/csr.hpp"
#include "util/require.hpp"

namespace midas::core {

struct Scan2DOptions {
  int max_size = 4;               // max vertices per subgraph (degree bound)
  std::uint32_t max_baseline = 8;  // the paper's "B(S) <= k" cap
  double epsilon = 0.05;
  std::uint64_t seed = 1;
  int max_rounds = 0;

  [[nodiscard]] int rounds() const {
    return max_rounds > 0 ? max_rounds : rounds_for_epsilon(epsilon);
  }
};

/// feasible[y][z] == true => a connected subgraph with at most `max_size`
/// vertices, rounded baseline exactly y (y <= max_baseline), and rounded
/// event weight exactly z exists. "true" entries are always correct.
struct Feasibility2D {
  int max_size = 0;
  std::uint32_t max_baseline = 0;
  std::uint32_t max_weight = 0;
  std::vector<std::vector<bool>> feasible;  // [y][z]
  // Run record of midas_scan2d (left at its defaults by the sequential
  // detector).
  double vtime = 0.0;             // modeled parallel makespan (seconds)
  std::vector<int> failed_ranks;  // world ranks lost to injected faults
  int resumed_from_round = -1;    // snapshot round this run resumed at

  [[nodiscard]] bool at(std::uint32_t y, std::uint32_t z) const {
    return y <= max_baseline && z <= max_weight && feasible[y][z];
  }
};

template <gf::GaloisField F>
Feasibility2D detect_scan2d_seq(const graph::Graph& g,
                                const std::vector<std::uint32_t>& baseline,
                                const std::vector<std::uint32_t>& weight,
                                const Scan2DOptions& opt, const F& f = F{}) {
  const int s_max = opt.max_size;
  MIDAS_REQUIRE(s_max >= 1 && s_max <= 20, "max_size must be in [1,20]");
  const graph::VertexId n = g.num_vertices();
  MIDAS_REQUIRE(baseline.size() == n && weight.size() == n,
                "baseline and weight must have one entry per vertex");

  const std::uint32_t wmax = max_weight_of(weight, s_max);
  const std::uint32_t bcap = opt.max_baseline;

  Feasibility2D table;
  table.max_size = s_max;
  table.max_baseline = bcap;
  table.max_weight = wmax;
  table.feasible.assign(bcap + 1, std::vector<bool>(wmax + 1, false));
  if (n == 0) return table;

  using V = typename F::value_type;
  const std::uint64_t iters = std::uint64_t{1} << s_max;
  const std::uint32_t bw = bcap + 1;
  const std::uint32_t ww = wmax + 1;
  // vals[j][((y * ww + z) * n) + i]
  auto idx = [&](std::uint32_t y, std::uint32_t z, graph::VertexId i) {
    return (static_cast<std::size_t>(y) * ww + z) * n + i;
  };
  std::vector<std::uint32_t> v(n);
  std::vector<std::vector<V>> vals(static_cast<std::size_t>(s_max) + 1);
  for (int j = 1; j <= s_max; ++j)
    vals[static_cast<std::size_t>(j)].assign(
        static_cast<std::size_t>(bw) * ww * n, f.zero());
  // accum[j][y * ww + z]
  std::vector<std::vector<V>> accum(
      static_cast<std::size_t>(s_max) + 1,
      std::vector<V>(static_cast<std::size_t>(bw) * ww, f.zero()));

  for (int round = 0; round < opt.rounds(); ++round) {
    for (graph::VertexId i = 0; i < n; ++i)
      v[i] = v_vector(opt.seed, round, i, s_max);
    for (auto& a : accum) std::fill(a.begin(), a.end(), f.zero());

    for (std::uint64_t t = 0; t < iters; ++t) {
      auto& base = vals[1];
      std::fill(base.begin(), base.end(), f.zero());
      for (graph::VertexId i = 0; i < n; ++i) {
        if (baseline[i] > bcap) continue;  // vertex alone exceeds the cap
        if (!inner_product_odd(v[i], static_cast<std::uint32_t>(t)))
          base[idx(baseline[i], weight[i], i)] =
              field_coeff(f, opt.seed, round, i, 1);
      }
      for (int j = 2; j <= s_max; ++j) {
        auto& out = vals[static_cast<std::size_t>(j)];
        std::fill(out.begin(), out.end(), f.zero());
        for (graph::VertexId i = 0; i < n; ++i) {
          for (graph::VertexId u : g.neighbors(i)) {
            const V sig = sigma_coeff(f, opt.seed, round, i, u,
                                      static_cast<std::uint32_t>(j));
            for (int j1 = 1; j1 <= j - 1; ++j1) {
              const auto& own = vals[static_cast<std::size_t>(j1)];
              const auto& oth = vals[static_cast<std::size_t>(j - j1)];
              for (std::uint32_t y = 0; y < bw; ++y) {
                for (std::uint32_t z = 0; z < ww; ++z) {
                  V acc = f.zero();
                  for (std::uint32_t y1 = 0; y1 <= y; ++y1) {
                    for (std::uint32_t z1 = 0; z1 <= z; ++z1) {
                      const V a = own[idx(y1, z1, i)];
                      if (a == f.zero()) continue;
                      const V b = oth[idx(y - y1, z - z1, u)];
                      if (b == f.zero()) continue;
                      acc = f.add(acc, f.mul(a, b));
                    }
                  }
                  if (acc != f.zero()) {
                    auto& cell = out[idx(y, z, i)];
                    cell = f.add(cell, f.mul(sig, acc));
                  }
                }
              }
            }
          }
        }
      }
      // Subgroup-restricted accumulation per size (see detect_seq.hpp).
      for (int j = 1; j <= s_max; ++j) {
        if (t >= (std::uint64_t{1} << j)) continue;
        const auto& layer = vals[static_cast<std::size_t>(j)];
        auto& acc = accum[static_cast<std::size_t>(j)];
        for (std::uint32_t y = 0; y < bw; ++y) {
          for (std::uint32_t z = 0; z < ww; ++z) {
            V sum = f.zero();
            for (graph::VertexId i = 0; i < n; ++i)
              sum = f.add(sum, layer[idx(y, z, i)]);
            acc[static_cast<std::size_t>(y) * ww + z] =
                f.add(acc[static_cast<std::size_t>(y) * ww + z], sum);
          }
        }
      }
    }
    for (int j = 1; j <= s_max; ++j)
      for (std::uint32_t y = 0; y < bw; ++y)
        for (std::uint32_t z = 0; z < ww; ++z)
          if (accum[static_cast<std::size_t>(j)]
                   [static_cast<std::size_t>(y) * ww + z] != f.zero())
            table.feasible[y][z] = true;
  }
  return table;
}

/// Distributed Problem 2: the scan2d DP on the MIDAS phase engine.
/// Identical table as detect_scan2d_seq (bit-identical for the same seed);
/// messages carry both weight axes, i.e. (bcap+1)*(wmax+1)*N2 values per
/// boundary vertex per size step. `sopt` sets the size cap, the rounds and
/// the seed; `mopt` sets the geometry, the cost model, faults, watchdog
/// and checkpoints. Scalar-only: kernel=bitsliced is an options error.
template <gf::GaloisField F>
Feasibility2D midas_scan2d(const graph::Graph& g,
                           const partition::Partition& part,
                           const std::vector<std::uint32_t>& baseline,
                           const std::vector<std::uint32_t>& weight,
                           const Scan2DOptions& sopt,
                           const MidasOptions& mopt, const F& f = F{}) {
  using V = typename F::value_type;
  detail::require_options(part.parts == mopt.n1,
                          "partition must have N1 parts");
  const int s_max = sopt.max_size;
  detail::require_options(s_max >= 1 && s_max <= 20,
                          "max_size must be in [1,20]");
  const graph::VertexId n = g.num_vertices();
  detail::require_options(
      baseline.size() == n && weight.size() == n,
      "baseline and weight must have one entry per vertex");
  const auto views = partition::build_part_views(g, part);

  const std::uint32_t wmax = max_weight_of(weight, s_max);
  const std::uint32_t bw = sopt.max_baseline + 1;
  const std::uint32_t ww = wmax + 1;
  const std::uint32_t plane = bw * ww;

  MidasOptions opt = mopt;
  opt.k = s_max;
  opt.epsilon = sopt.epsilon;
  opt.seed = sopt.seed;
  opt.max_rounds = sopt.max_rounds;
  // The accumulator holds one sum per (size, baseline, weight) cell:
  // accum[j * plane + y * ww + z].
  std::vector<std::uint32_t> inputs(baseline);
  inputs.insert(inputs.end(), weight.begin(), weight.end());
  inputs.push_back(sopt.max_baseline);
  const detail::Recurrence rec{
      .tag = 0x7363616e3264ULL /* "scan2d" */,
      .extra = runtime::fnv1a(
          std::as_bytes(std::span<const std::uint32_t>(inputs))),
      .acc_len = static_cast<std::size_t>(s_max + 1) * plane,
      .stops_on_found = false,
      .bitsliced = false};

  auto run = detail::run_phase_engine(views, opt, f, rec, [&](
      const detail::PhaseRank& pr, auto&& rounds) {
    runtime::Comm& world = pr.world;
    runtime::Comm& group = pr.group;
    const auto& view = pr.view;
    const std::uint32_t nl = view.num_local();
    const std::uint32_t ng = view.num_ghosts();

    int round = 0;
    std::vector<std::uint32_t> v(nl);
    // c1[li]: base-case coefficient, hashed once per round.
    std::vector<V> c1(nl);
    // vals[j][(li * plane + y*ww + z) * batch + b]; ghosts mirror.
    std::vector<std::vector<V>> vals(static_cast<std::size_t>(s_max) + 1);
    std::vector<std::vector<V>> ghost(static_cast<std::size_t>(s_max) + 1);

    auto run_phase = [&](std::uint64_t q0, std::size_t batch,
                         std::span<V> accum) {
      const std::size_t stride = static_cast<std::size_t>(plane) * batch;
      for (int j = 1; j <= s_max; ++j) {
        vals[static_cast<std::size_t>(j)].assign(stride * nl, f.zero());
        ghost[static_cast<std::size_t>(j)].assign(stride * ng, f.zero());
      }

      auto& base = vals[1];
      for (std::uint32_t li = 0; li < nl; ++li) {
        const graph::VertexId gid = view.vertices[li];
        if (baseline[gid] >= bw) continue;
        const V coeff = c1[li];
        V* row = base.data() + li * stride +
                 (static_cast<std::size_t>(baseline[gid]) * ww +
                  weight[gid]) *
                     batch;
        for (std::size_t b = 0; b < batch; ++b) {
          const auto q = static_cast<std::uint32_t>(q0 + b);
          row[b] = inner_product_odd(v[li], q) ? f.zero() : coeff;
        }
      }
      world.charge_compute(static_cast<std::uint64_t>(nl) * batch);
      detail::halo_exchange(group, view, vals[1], ghost[1],
                            batch * plane);

      for (int j = 2; j <= s_max; ++j) {
        auto& out = vals[static_cast<std::size_t>(j)];
        std::uint64_t ops = 0;
        for (std::uint32_t li = 0; li < nl; ++li) {
          const graph::VertexId gid = view.vertices[li];
          const auto begin = view.adj_offsets[li];
          const auto end = view.adj_offsets[li + 1];
          for (auto e = begin; e < end; ++e) {
            const auto ref = view.adj[e];
            const bool is_ghost = ref.is_ghost();
            const std::uint32_t idx = ref.index();
            const graph::VertexId u_gid =
                is_ghost ? view.ghosts[idx] : view.vertices[idx];
            const V sig = sigma_coeff(f, opt.seed, round, gid, u_gid,
                                      static_cast<std::uint32_t>(j));
            for (int j1 = 1; j1 <= j - 1; ++j1) {
              const V* own_vertex =
                  vals[static_cast<std::size_t>(j1)].data() +
                  li * stride;
              const V* oth_vertex =
                  (is_ghost
                       ? ghost[static_cast<std::size_t>(j - j1)].data()
                       : vals[static_cast<std::size_t>(j - j1)].data()) +
                  idx * stride;
              V* out_vertex = out.data() + li * stride;
              for (std::uint32_t y = 0; y < bw; ++y) {
                for (std::uint32_t z = 0; z < ww; ++z) {
                  V* row = out_vertex +
                           (static_cast<std::size_t>(y) * ww + z) * batch;
                  for (std::uint32_t y1 = 0; y1 <= y; ++y1) {
                    for (std::uint32_t z1 = 0; z1 <= z; ++z1) {
                      const V* a = own_vertex +
                                   (static_cast<std::size_t>(y1) * ww +
                                    z1) *
                                       batch;
                      const V* c =
                          oth_vertex +
                          (static_cast<std::size_t>(y - y1) * ww +
                           (z - z1)) *
                              batch;
                      for (std::size_t b = 0; b < batch; ++b) {
                        if (a[b] == f.zero() || c[b] == f.zero())
                          continue;
                        row[b] = f.add(row[b],
                                       f.mul(sig, f.mul(a[b], c[b])));
                      }
                      ops += batch;
                    }
                  }
                }
              }
            }
          }
        }
        world.charge_compute(ops);
        if (j < s_max)
          detail::halo_exchange(group, view,
                                vals[static_cast<std::size_t>(j)],
                                ghost[static_cast<std::size_t>(j)],
                                batch * plane);
      }
      // Subgroup-restricted accumulation per size.
      for (int j = 1; j <= s_max; ++j) {
        const std::uint64_t jlimit = std::uint64_t{1} << j;
        if (q0 >= jlimit) continue;
        const std::size_t bmax =
            std::min<std::uint64_t>(batch, jlimit - q0);
        const auto& layer = vals[static_cast<std::size_t>(j)];
        V* acc = accum.data() + static_cast<std::size_t>(j) * plane;
        for (std::uint32_t li = 0; li < nl; ++li) {
          const V* vertex = layer.data() + li * stride;
          for (std::uint32_t cell = 0; cell < plane; ++cell) {
            const V* row = vertex + static_cast<std::size_t>(cell) * batch;
            for (std::size_t b = 0; b < bmax; ++b)
              acc[cell] = f.add(acc[cell], row[b]);
          }
        }
      }
    };

    auto begin_round = [&](int r) {
      round = r;
      for (std::uint32_t li = 0; li < nl; ++li) {
        v[li] = v_vector(opt.seed, round, view.vertices[li], s_max);
        c1[li] = field_coeff(f, opt.seed, round, view.vertices[li], 1);
      }
    };
    rounds(begin_round, run_phase, detail::ScalarOnly{});
  });

  Feasibility2D table;
  table.max_size = s_max;
  table.max_baseline = sopt.max_baseline;
  table.max_weight = wmax;
  table.feasible.assign(bw, std::vector<bool>(ww, false));
  for (std::size_t i = 0; i < run.cells.size(); ++i)
    if (run.cells[i]) table.feasible[i % plane / ww][i % ww] = true;
  table.vtime = run.result.vtime;
  table.failed_ranks = std::move(run.result.failed_ranks);
  table.resumed_from_round = run.result.resumed_from_round;
  return table;
}

/// Maximize an arbitrary F(W, B) over the feasible (B, W) cells. `score`
/// receives the *rounded* values; rescale inside if steps were used.
struct Scan2DOptimum {
  double score = 0.0;
  std::uint32_t baseline = 0;
  std::uint32_t weight = 0;
};
[[nodiscard]] inline Scan2DOptimum maximize_scan2d(
    const Feasibility2D& table,
    const std::function<double(std::uint32_t w, std::uint32_t b)>& score) {
  Scan2DOptimum best;
  for (std::uint32_t y = 0; y <= table.max_baseline; ++y) {
    for (std::uint32_t z = 0; z <= table.max_weight; ++z) {
      if (!table.feasible[y][z]) continue;
      const double s = score(z, y);
      if (s > best.score) {
        best.score = s;
        best.baseline = y;
        best.weight = z;
      }
    }
  }
  return best;
}

}  // namespace midas::core
