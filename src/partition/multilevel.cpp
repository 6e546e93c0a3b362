#include "partition/multilevel.hpp"

#include <algorithm>
#include <numeric>

#include "util/require.hpp"
#include "util/rng.hpp"

namespace midas::partition {

namespace {

/// One level of the coarsening hierarchy: a vertex- and edge-weighted
/// graph in CSR form, plus the mapping from the finer level's vertices.
struct Level {
  VertexId n = 0;
  std::vector<std::uint32_t> vweight;
  std::vector<std::uint64_t> offsets;
  std::vector<VertexId> nbr;
  std::vector<std::uint32_t> eweight;
  std::vector<VertexId> parent;  // finer vertex -> this level's vertex
};

Level level_from_graph(const Graph& g) {
  Level lvl;
  lvl.n = g.num_vertices();
  lvl.vweight.assign(lvl.n, 1);
  lvl.offsets.assign(static_cast<std::size_t>(lvl.n) + 1, 0);
  for (VertexId v = 0; v < lvl.n; ++v)
    lvl.offsets[v + 1] = lvl.offsets[v] + g.degree(v);
  lvl.nbr.reserve(lvl.offsets[lvl.n]);
  for (VertexId v = 0; v < lvl.n; ++v)
    for (VertexId u : g.neighbors(v)) lvl.nbr.push_back(u);
  lvl.eweight.assign(lvl.nbr.size(), 1);
  return lvl;
}

/// Heavy-edge matching + contraction. Returns the coarser level; fills
/// fine.parent.
Level coarsen(Level& fine, Xoshiro256& rng) {
  const VertexId n = fine.n;
  std::vector<VertexId> match(n, n);  // n = unmatched
  std::vector<VertexId> order(n);
  std::iota(order.begin(), order.end(), 0);
  for (VertexId i = n; i > 1; --i)
    std::swap(order[i - 1], order[rng.below(i)]);

  for (VertexId v : order) {
    if (match[v] != n) continue;
    VertexId best = n;
    std::uint32_t best_w = 0;
    for (auto e = fine.offsets[v]; e < fine.offsets[v + 1]; ++e) {
      const VertexId u = fine.nbr[e];
      if (u != v && match[u] == n && fine.eweight[e] > best_w) {
        best_w = fine.eweight[e];
        best = u;
      }
    }
    match[v] = (best == n) ? v : best;
    if (best != n) match[best] = v;
  }

  // Assign coarse ids (one per matched pair / singleton).
  fine.parent.assign(n, 0);
  VertexId coarse_n = 0;
  std::vector<bool> seen(n, false);
  for (VertexId v = 0; v < n; ++v) {
    if (seen[v]) continue;
    seen[v] = true;
    const VertexId m = match[v];
    fine.parent[v] = coarse_n;
    if (m != v && m < n) {
      seen[m] = true;
      fine.parent[m] = coarse_n;
    }
    ++coarse_n;
  }

  // Aggregate edges between coarse vertices without sorting: visit the
  // source coarse vertices in id order (through their smaller fine member,
  // the order the ids were assigned in) and append each cross edge to its
  // target's bucket. A bucket then lists its coarse vertex's neighbours
  // ascending, each in a run of the fine edges between the two; the graph
  // is symmetric, so summing a run gives the coarse edge's weight.
  Level coarse;
  coarse.n = coarse_n;
  coarse.vweight.assign(coarse_n, 0);
  for (VertexId v = 0; v < n; ++v)
    coarse.vweight[fine.parent[v]] += fine.vweight[v];
  std::vector<std::uint64_t> start(static_cast<std::size_t>(coarse_n) + 1, 0);
  for (VertexId v = 0; v < n; ++v) {
    const VertexId cv = fine.parent[v];
    for (auto e = fine.offsets[v]; e < fine.offsets[v + 1]; ++e) {
      const VertexId cu = fine.parent[fine.nbr[e]];
      if (cu != cv) ++start[cu + 1];
    }
  }
  for (VertexId c = 0; c < coarse_n; ++c) start[c + 1] += start[c];
  std::vector<VertexId> src(start[coarse_n]);
  std::vector<std::uint32_t> w(start[coarse_n]);
  std::vector<std::uint64_t> fill(start.begin(), start.end() - 1);
  for (VertexId v = 0; v < n; ++v) {
    const VertexId m = match[v];
    if (m < v) continue;  // visited through m
    const VertexId cv = fine.parent[v];
    auto add_edges = [&](VertexId x) {
      for (auto e = fine.offsets[x]; e < fine.offsets[x + 1]; ++e) {
        const VertexId cu = fine.parent[fine.nbr[e]];
        if (cu == cv) continue;
        src[fill[cu]] = cv;
        w[fill[cu]++] = fine.eweight[e];
      }
    };
    add_edges(v);
    if (m != v) add_edges(m);
  }
  coarse.offsets.assign(static_cast<std::size_t>(coarse_n) + 1, 0);
  coarse.nbr.reserve(src.size());
  coarse.eweight.reserve(src.size());
  for (VertexId cu = 0; cu < coarse_n; ++cu) {
    for (auto e = start[cu]; e < start[cu + 1]; ++e) {
      if (e > start[cu] && src[e] == src[e - 1]) {
        coarse.eweight.back() += w[e];
      } else {
        coarse.nbr.push_back(src[e]);
        coarse.eweight.push_back(w[e]);
      }
    }
    coarse.offsets[cu + 1] = coarse.nbr.size();
  }
  return coarse;
}

/// BFS-grown initial partition of the coarsest level, balanced on vertex
/// weights.
std::vector<int> initial_partition(const Level& lvl, int parts) {
  std::uint64_t total = 0;
  for (auto w : lvl.vweight) total += w;
  const std::uint64_t target = (total + parts - 1) / parts;
  std::vector<int> owner(lvl.n, -1);
  VertexId next_seed = 0;
  for (int p = 0; p < parts; ++p) {
    std::uint64_t filled = 0;
    std::vector<VertexId> queue;
    std::size_t head = 0;
    while (filled < target) {
      if (head >= queue.size()) {
        while (next_seed < lvl.n && owner[next_seed] != -1) ++next_seed;
        if (next_seed >= lvl.n) break;
        queue.push_back(next_seed);
        owner[next_seed] = p;
        filled += lvl.vweight[next_seed];
        ++head;
        if (filled >= target) break;
        // fall through to expand from this seed
        --head;
      }
      const VertexId v = queue[head++];
      for (auto e = lvl.offsets[v]; e < lvl.offsets[v + 1] && filled < target;
           ++e) {
        const VertexId u = lvl.nbr[e];
        if (owner[u] == -1) {
          owner[u] = p;
          queue.push_back(u);
          filled += lvl.vweight[u];
        }
      }
    }
  }
  for (VertexId v = 0; v < lvl.n; ++v)
    if (owner[v] == -1) owner[v] = parts - 1;
  return owner;
}

/// Weighted label-propagation refinement at one level.
void refine(const Level& lvl, std::vector<int>& owner, int parts,
            int sweeps) {
  std::uint64_t total = 0;
  for (auto w : lvl.vweight) total += w;
  const auto capacity = static_cast<std::uint64_t>(
      static_cast<double>(total) / parts * 1.08 + 1);
  std::vector<std::uint64_t> load(static_cast<std::size_t>(parts), 0);
  for (VertexId v = 0; v < lvl.n; ++v)
    load[static_cast<std::size_t>(owner[v])] += lvl.vweight[v];
  std::vector<std::uint64_t> gain(static_cast<std::size_t>(parts));
  for (int sweep = 0; sweep < sweeps; ++sweep) {
    bool moved = false;
    for (VertexId v = 0; v < lvl.n; ++v) {
      std::fill(gain.begin(), gain.end(), 0);
      for (auto e = lvl.offsets[v]; e < lvl.offsets[v + 1]; ++e)
        gain[static_cast<std::size_t>(owner[lvl.nbr[e]])] +=
            lvl.eweight[e];
      const int cur = owner[v];
      int best = cur;
      for (int p = 0; p < parts; ++p) {
        if (p == cur) continue;
        const auto sp = static_cast<std::size_t>(p);
        if (load[sp] + lvl.vweight[v] > capacity) continue;
        if (gain[sp] > gain[static_cast<std::size_t>(best)]) best = p;
      }
      if (best != cur &&
          load[static_cast<std::size_t>(cur)] > lvl.vweight[v]) {
        owner[v] = best;
        load[static_cast<std::size_t>(cur)] -= lvl.vweight[v];
        load[static_cast<std::size_t>(best)] += lvl.vweight[v];
        moved = true;
      }
    }
    if (!moved) break;
  }
}

}  // namespace

Partition multilevel_partition(const Graph& g, int parts,
                               const MultilevelOptions& opt) {
  MIDAS_REQUIRE(parts >= 1, "need at least one part");
  MIDAS_REQUIRE(g.num_vertices() >= static_cast<VertexId>(parts),
                "more parts than vertices");
  if (parts == 1)  // what coarsening and refining would return
    return Partition{1, std::vector<int>(g.num_vertices(), 0)};
  Xoshiro256 rng(opt.seed);

  // Coarsen until small or no longer shrinking.
  std::vector<Level> levels;
  levels.push_back(level_from_graph(g));
  const auto stop_size = static_cast<VertexId>(
      std::max(1, parts * opt.coarsest_size_per_part));
  while (levels.back().n > stop_size) {
    Level next = coarsen(levels.back(), rng);
    if (next.n >= levels.back().n * 95 / 100) break;  // stalled
    levels.push_back(std::move(next));
  }

  // Initial partition at the coarsest level, then project and refine.
  std::vector<int> owner = initial_partition(levels.back(), parts);
  refine(levels.back(), owner, parts, opt.refine_sweeps);
  for (std::size_t lvl = levels.size() - 1; lvl-- > 0;) {
    std::vector<int> fine_owner(levels[lvl].n);
    for (VertexId v = 0; v < levels[lvl].n; ++v)
      fine_owner[v] = owner[levels[lvl].parent[v]];
    owner = std::move(fine_owner);
    refine(levels[lvl], owner, parts, opt.refine_sweeps);
  }

  Partition p{parts, std::move(owner)};
  // Guarantee nonempty parts.
  auto load = p.loads();
  for (int part = 0; part < parts; ++part) {
    if (load[static_cast<std::size_t>(part)] > 0) continue;
    const int donor = static_cast<int>(
        std::max_element(load.begin(), load.end()) - load.begin());
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (p.owner[v] == donor) {
        p.owner[v] = part;
        load[static_cast<std::size_t>(donor)]--;
        load[static_cast<std::size_t>(part)]++;
        break;
      }
    }
  }
  return p;
}

}  // namespace midas::partition
