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

namespace detail {

/// The scan2d DP, scalar only: per size j, one (baseline y, weight z) cell
/// per vertex, P(i, 1, b(i), w(i)) = c_i [v_i ⟂ t] for b(i) within the cap,
/// and P(i, j, y, z) = sum_u sigma_{i,u,j} sum_{j1, y1, z1} P(i, j1, y1, z1)
/// P(u, j - j1, y - y1, z - z1). The accumulator holds one sum per (size,
/// baseline, weight) cell, acc[j * bw * ww + y * ww + z], with scan's
/// subgroup-restricted accumulation per size. `baseline` and `weight` are
/// indexed by the view's vertex ids; messages carry both weight axes.
template <gf::GaloisField F, typename Rounds>
void scan2d_rank(const PhaseRank& pr, Rounds&& rounds, const F& f,
                 int s_max, std::uint64_t seed,
                 const std::vector<std::uint32_t>& baseline,
                 const std::vector<std::uint32_t>& weight, std::uint32_t bw,
                 std::uint32_t ww) {
  using V = typename F::value_type;
  const std::uint32_t plane = bw * ww;
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

  auto phase = [&](std::uint64_t q0, std::size_t batch, std::span<V> accum) {
    const std::size_t stride = static_cast<std::size_t>(plane) * batch;
    for (int j = 1; j <= s_max; ++j) {
      vals[static_cast<std::size_t>(j)].assign(stride * nl, f.zero());
      ghost[static_cast<std::size_t>(j)].assign(stride * ng, f.zero());
    }

    auto& base = vals[1];
    for (std::uint32_t li = 0; li < nl; ++li) {
      const graph::VertexId gid = view.vertices[li];
      if (baseline[gid] >= bw) continue;  // vertex alone exceeds the cap
      const V coeff = c1[li];
      V* row =
          base.data() + li * stride +
          (static_cast<std::size_t>(baseline[gid]) * ww + weight[gid]) * batch;
      for (std::size_t b = 0; b < batch; ++b) {
        const auto q = static_cast<std::uint32_t>(q0 + b);
        row[b] = inner_product_odd(v[li], q) ? f.zero() : coeff;
      }
    }
    pr.charge_compute(static_cast<std::uint64_t>(nl) * batch);
    pr.halo_values(vals[1], ghost[1], batch * plane);

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
          const V sig = sigma_coeff(f, seed, round, gid, u_gid,
                                    static_cast<std::uint32_t>(j));
          for (int j1 = 1; j1 <= j - 1; ++j1) {
            const V* own_vertex =
                vals[static_cast<std::size_t>(j1)].data() + li * stride;
            const V* oth_vertex =
                (is_ghost ? ghost[static_cast<std::size_t>(j - j1)].data()
                          : vals[static_cast<std::size_t>(j - j1)].data()) +
                idx * stride;
            V* out_vertex = out.data() + li * stride;
            for (std::uint32_t y = 0; y < bw; ++y) {
              for (std::uint32_t z = 0; z < ww; ++z) {
                V* row =
                    out_vertex + (static_cast<std::size_t>(y) * ww + z) * batch;
                for (std::uint32_t y1 = 0; y1 <= y; ++y1) {
                  for (std::uint32_t z1 = 0; z1 <= z; ++z1) {
                    const V* a =
                        own_vertex +
                        (static_cast<std::size_t>(y1) * ww + z1) * batch;
                    const V* c = oth_vertex +
                                 (static_cast<std::size_t>(y - y1) * ww +
                                  (z - z1)) *
                                     batch;
                    for (std::size_t b = 0; b < batch; ++b) {
                      if (a[b] == f.zero() || c[b] == f.zero()) continue;
                      row[b] = f.add(row[b], f.mul(sig, f.mul(a[b], c[b])));
                    }
                    ops += batch;
                  }
                }
              }
            }
          }
        }
      }
      pr.charge_compute(ops);
      if (j < s_max)
        pr.halo_values(vals[static_cast<std::size_t>(j)],
                       ghost[static_cast<std::size_t>(j)], batch * plane);
    }
    // Subgroup-restricted accumulation per size (detail::scan_rank).
    for (int j = 1; j <= s_max; ++j) {
      const std::uint64_t jlimit = std::uint64_t{1} << j;
      if (q0 >= jlimit) continue;
      const std::size_t bmax = std::min<std::uint64_t>(batch, jlimit - q0);
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
      v[li] = v_vector(seed, round, view.vertices[li], s_max);
      c1[li] = field_coeff(f, seed, round, view.vertices[li], 1);
    }
  };
  rounds(begin_round, phase, ScalarOnly{});
}

/// An empty table of the run's shape.
[[nodiscard]] inline Feasibility2D scan2d_table(int s_max,
                                                std::uint32_t max_baseline,
                                                std::uint32_t wmax) {
  Feasibility2D table;
  table.max_size = s_max;
  table.max_baseline = max_baseline;
  table.max_weight = wmax;
  table.feasible.assign(max_baseline + 1,
                        std::vector<bool>(wmax + 1, false));
  return table;
}

}  // namespace detail

/// Sequential Problem 2: the scan2d phase body on the one-part view of g,
/// every round.
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

  Feasibility2D table = detail::scan2d_table(
      s_max, opt.max_baseline, max_weight_of(weight, s_max));
  if (n == 0) return table;
  const std::uint32_t bw = opt.max_baseline + 1;
  const std::uint32_t ww = table.max_weight + 1;
  const std::uint32_t plane = bw * ww;
  (void)detail::run_sequential(
      detail_seq::whole_view(g, {}), f, s_max, opt.rounds(),
      /*bitsliced=*/false, static_cast<std::size_t>(s_max + 1) * plane,
      [&](int, auto acc) {
        for (std::size_t i = plane; i < acc.size(); ++i)
          if (acc[i] != 0) table.feasible[i % plane / ww][i % ww] = true;
        return false;
      },
      [&](const detail::PhaseRank& pr, auto&& rounds) {
        detail::scan2d_rank(pr, rounds, f, s_max, opt.seed, baseline, weight,
                            bw, ww);
      });
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
    detail::scan2d_rank(pr, rounds, f, s_max, opt.seed, baseline, weight, bw,
                        ww);
  });

  Feasibility2D table = detail::scan2d_table(s_max, sopt.max_baseline, wmax);
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
