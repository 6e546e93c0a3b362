// Full Problem 2 scan feasibility: heterogeneous baselines.
//
// The paper's Problem 2 constrains the *baseline* count: find connected S
// maximizing F(W(S), B(S)) subject to B(S) <= k, where B is not |S| in
// general. Algorithm 5 (and scan/scan_statistics.hpp) use the unit-
// baseline shortcut B(S) = |S|. This header implements the general case:
// the scan DP (detail::scan_rank) with a second axis, so each cell is a
// rounded baseline y and a rounded event weight z per subgraph size j, and
// the result is the set of achievable (B(S), W(S)) pairs over connected
// subgraphs of at most `max_size` vertices. Any statistic F(W, B) is then
// maximized over the table, with the true heterogeneous B.
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

/// Sequential Problem 2: the scan phase body (detail::scan_rank) at
/// bw = max_baseline + 1 on the one-part view of g, every round, with the
/// kernel kAuto picks.
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
      detail::use_bitsliced(f, Kernel::kAuto),
      static_cast<std::size_t>(s_max + 1) * plane,
      [&](int, auto acc) {
        for (std::size_t i = plane; i < acc.size(); ++i)
          if (acc[i] != 0) table.feasible[i % plane / ww][i % ww] = true;
        return false;
      },
      [&](const detail::PhaseRank& pr, auto&& rounds) {
        detail::scan_rank(pr, rounds, f, s_max, opt.seed, weight, ww,
                          baseline, bw);
      });
  return table;
}

/// Distributed Problem 2: the scan phase body at bw = max_baseline + 1 on
/// the MIDAS phase engine. Identical table as detect_scan2d_seq
/// (bit-identical for the same seed, under either kernel); messages carry
/// both weight axes, i.e. (bcap+1)*(wmax+1) plane-native rows of N2 lanes
/// per boundary vertex per size step. `sopt` sets the size cap, the rounds
/// and the seed; `mopt` sets the geometry, the kernel, the cost model,
/// faults, watchdog and checkpoints.
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
      .stops_on_found = false};

  auto run = detail::run_phase_engine(views, opt, f, rec, [&](
      const detail::PhaseRank& pr, auto&& rounds) {
    detail::scan_rank(pr, rounds, f, s_max, opt.seed, weight, ww, baseline,
                      bw);
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
