#include "core/witness.hpp"

#include <algorithm>
#include <functional>

#include "core/motif.hpp"
#include "gf/gf256.hpp"
#include "gf/gfsmall.hpp"
#include "graph/algorithms.hpp"
#include "partition/partitioned_graph.hpp"
#include "util/require.hpp"

namespace midas::core {

using graph::Graph;
using graph::VertexId;

namespace {

/// Vertices currently alive, as a list.
std::vector<VertexId> alive_list(const std::vector<bool>& alive) {
  std::vector<VertexId> out;
  for (VertexId v = 0; v < alive.size(); ++v)
    if (alive[v]) out.push_back(v);
  return out;
}

/// Run `fn` with the oracle field matching `l` bits (GF(2^8) table-driven,
/// GFSmall otherwise — the same dispatch the service uses).
template <typename Fn>
decltype(auto) with_witness_field(int l, Fn&& fn) {
  if (l == 8) return fn(gf::GF256{});
  return fn(gf::GFSmall(l));
}

DetectOptions oracle_options(const WitnessOptions& opt, int k) {
  DetectOptions d;
  d.k = k;
  d.epsilon = opt.epsilon;
  d.seed = opt.seed;
  d.kernel = opt.kernel;
  return d;
}

}  // namespace

// ---------------------------------------------------------------------------
// Exact searches (the peel's final step)
// ---------------------------------------------------------------------------

std::optional<std::vector<VertexId>> exact_kpath(const Graph& g, int k) {
  const VertexId n = g.num_vertices();
  std::vector<bool> used(n, false);
  std::vector<VertexId> path;
  std::function<bool(VertexId)> extend = [&](VertexId v) -> bool {
    used[v] = true;
    path.push_back(v);
    if (static_cast<int>(path.size()) == k) return true;
    for (VertexId u : g.neighbors(v)) {
      if (!used[u] && extend(u)) return true;
    }
    used[v] = false;
    path.pop_back();
    return false;
  };
  for (VertexId s = 0; s < n; ++s) {
    if (extend(s)) return path;
  }
  return std::nullopt;
}

// Grows connected sets by DFS over frontiers.
std::optional<std::vector<VertexId>> exact_connected_subgraph(
    const Graph& g, const std::vector<std::uint32_t>& w, int j,
    std::uint32_t z) {
  MIDAS_REQUIRE(w.size() == g.num_vertices(), "one weight per vertex required");
  const VertexId n = g.num_vertices();
  std::vector<bool> in_set(n, false), banned(n, false);
  std::vector<VertexId> subset;
  std::uint32_t weight = 0;

  // Enumerate connected subsets whose minimum vertex is `root`.
  std::function<bool(std::vector<VertexId>&, VertexId)> grow =
      [&](std::vector<VertexId>& frontier, VertexId root) -> bool {
    if (static_cast<int>(subset.size()) == j) return weight == z;
    while (!frontier.empty()) {
      const VertexId v = frontier.back();
      frontier.pop_back();
      std::vector<VertexId> next(frontier);
      std::vector<VertexId> closed_here;
      for (VertexId u : g.neighbors(v)) {
        if (u > root && !in_set[u] && !banned[u]) {
          next.push_back(u);
          banned[u] = true;
          closed_here.push_back(u);
        }
      }
      in_set[v] = true;
      subset.push_back(v);
      weight += w[v];
      if (grow(next, root)) return true;
      weight -= w[v];
      subset.pop_back();
      in_set[v] = false;
      for (VertexId u : closed_here) banned[u] = false;
    }
    return false;
  };

  for (VertexId root = 0; root < n; ++root) {
    subset = {root};
    weight = w[root];
    std::fill(in_set.begin(), in_set.end(), false);
    std::fill(banned.begin(), banned.end(), false);
    in_set[root] = true;
    banned[root] = true;
    if (static_cast<int>(subset.size()) == j && weight == z) return subset;
    std::vector<VertexId> frontier;
    for (VertexId u : g.neighbors(root)) {
      if (u > root) {
        frontier.push_back(u);
        banned[u] = true;
      }
    }
    if (j > 1 && grow(frontier, root)) return subset;
  }
  return std::nullopt;
}

// Same rooted frontier growth as exact_connected_subgraph, with the
// multiset check at full size.
std::optional<std::vector<VertexId>> exact_motif(
    const Graph& g, const std::vector<std::uint32_t>& colors,
    const std::vector<std::uint32_t>& motif) {
  MIDAS_REQUIRE(colors.size() == g.num_vertices(),
                "one color per vertex required");
  std::vector<std::uint32_t> want(motif);
  std::sort(want.begin(), want.end());
  const int j = static_cast<int>(want.size());
  const VertexId n = g.num_vertices();
  std::vector<bool> in_set(n, false), banned(n, false);
  std::vector<VertexId> subset;
  auto matches = [&] {
    std::vector<std::uint32_t> got;
    got.reserve(subset.size());
    for (VertexId v : subset) got.push_back(colors[v]);
    std::sort(got.begin(), got.end());
    return got == want;
  };

  std::function<bool(std::vector<VertexId>&, VertexId)> grow =
      [&](std::vector<VertexId>& frontier, VertexId root) -> bool {
    if (static_cast<int>(subset.size()) == j) return matches();
    while (!frontier.empty()) {
      const VertexId v = frontier.back();
      frontier.pop_back();
      std::vector<VertexId> next(frontier);
      std::vector<VertexId> closed_here;
      for (VertexId u : g.neighbors(v)) {
        if (u > root && !in_set[u] && !banned[u]) {
          next.push_back(u);
          banned[u] = true;
          closed_here.push_back(u);
        }
      }
      in_set[v] = true;
      subset.push_back(v);
      if (grow(next, root)) return true;
      subset.pop_back();
      in_set[v] = false;
      for (VertexId u : closed_here) banned[u] = false;
    }
    return false;
  };

  for (VertexId root = 0; root < n; ++root) {
    subset = {root};
    std::fill(in_set.begin(), in_set.end(), false);
    std::fill(banned.begin(), banned.end(), false);
    in_set[root] = true;
    banned[root] = true;
    if (static_cast<int>(subset.size()) == j && matches()) return subset;
    std::vector<VertexId> frontier;
    for (VertexId u : g.neighbors(root)) {
      if (u > root) {
        frontier.push_back(u);
        banned[u] = true;
      }
    }
    if (j > 1 && grow(frontier, root)) return subset;
  }
  return std::nullopt;
}

// Maps template vertices in BFS order, each anchored on an already-mapped
// neighbor.
std::optional<std::vector<VertexId>> exact_tree_embedding(const Graph& h,
                                                          const Graph& tree) {
  MIDAS_REQUIRE(tree.num_vertices() >= 1, "template tree must be nonempty");
  const int k = static_cast<int>(tree.num_vertices());
  std::vector<VertexId> order;
  std::vector<int> anchor(k, -1);  // index into `order` of a mapped nbr
  {
    std::vector<bool> seen(static_cast<std::size_t>(k), false);
    std::vector<VertexId> queue{0};
    seen[0] = true;
    std::vector<int> pos(static_cast<std::size_t>(k), -1);
    while (!queue.empty()) {
      const VertexId t = queue.front();
      queue.erase(queue.begin());
      pos[t] = static_cast<int>(order.size());
      order.push_back(t);
      for (VertexId u : tree.neighbors(t)) {
        if (!seen[u]) {
          seen[u] = true;
          queue.push_back(u);
        }
      }
    }
    for (std::size_t p = 1; p < order.size(); ++p) {
      for (VertexId u : tree.neighbors(order[p])) {
        if (pos[u] >= 0 && pos[u] < static_cast<int>(p)) {
          anchor[order[p]] = pos[u];
          break;
        }
      }
    }
  }
  std::vector<VertexId> image(static_cast<std::size_t>(k), 0);
  std::vector<bool> used(h.num_vertices(), false);
  std::function<bool(std::size_t)> place = [&](std::size_t p) -> bool {
    if (p == order.size()) return true;
    const VertexId t = order[p];
    const VertexId anchored =
        image[order[static_cast<std::size_t>(anchor[t])]];
    for (VertexId cand : h.neighbors(anchored)) {
      if (used[cand]) continue;
      bool ok = true;
      for (VertexId u : tree.neighbors(t)) {
        for (std::size_t q = 0; q < p; ++q) {
          if (order[q] == u && !h.has_edge(cand, image[u])) {
            ok = false;
            break;
          }
        }
        if (!ok) break;
      }
      if (!ok) continue;
      image[t] = cand;
      used[cand] = true;
      if (place(p + 1)) return true;
      used[cand] = false;
    }
    return false;
  };
  for (VertexId root_image = 0; root_image < h.num_vertices();
       ++root_image) {
    image[order[0]] = root_image;
    used[root_image] = true;
    if (place(1)) return image;
    used[root_image] = false;
  }
  return std::nullopt;
}

/// Chunked peeling: repeatedly try to delete *groups* of candidate
/// vertices (halving the group size down to singletons), keeping the
/// removal whenever the oracle still answers "yes" on the residual graph.
/// Equivalent to one-at-a-time peeling (the final single-vertex pass is
/// exactly that) but typically needs O(j log n) oracle calls on much
/// smaller residual graphs instead of n calls on near-full ones.
void chunked_peel(VertexId n,
                  const std::function<bool(const std::vector<VertexId>&)>&
                      feasible_on,
                  std::vector<bool>& alive) {
  std::vector<VertexId> keep;
  for (std::size_t chunk = std::max<std::size_t>(1, n / 2);;
       chunk /= 2) {
    const auto candidates = alive_list(alive);
    keep.reserve(candidates.size());
    for (std::size_t begin = 0; begin < candidates.size(); begin += chunk) {
      const std::size_t end = std::min(begin + chunk, candidates.size());
      // `alive` only shrinks during a pass, and only in chunks already
      // tried: the residual is the survivors before the chunk plus every
      // candidate after it, already ascending.
      keep.clear();
      for (std::size_t i = 0; i < begin; ++i)
        if (alive[candidates[i]]) keep.push_back(candidates[i]);
      keep.insert(keep.end(), candidates.begin() + static_cast<long>(end),
                  candidates.end());
      if (feasible_on(keep)) {
        for (std::size_t i = begin; i < end; ++i)
          alive[candidates[i]] = false;
      }
    }
    if (chunk == 1) break;
  }
}

// ---------------------------------------------------------------------------
// Exact validators
// ---------------------------------------------------------------------------

bool validate_kpath(const Graph& g, const std::vector<VertexId>& path,
                    int k) {
  if (static_cast<int>(path.size()) != k || k < 1) return false;
  std::vector<VertexId> sorted(path);
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end())
    return false;  // repeated vertex
  for (VertexId v : path)
    if (v >= g.num_vertices()) return false;
  for (std::size_t i = 0; i + 1 < path.size(); ++i)
    if (!g.has_edge(path[i], path[i + 1])) return false;
  return true;
}

bool validate_connected_subgraph(const Graph& g,
                                 const std::vector<std::uint32_t>& weights,
                                 int j, std::uint32_t z,
                                 const std::vector<VertexId>& vs) {
  if (static_cast<int>(vs.size()) != j || j < 1) return false;
  if (weights.size() != g.num_vertices()) return false;
  std::vector<VertexId> sorted(vs);
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end())
    return false;
  std::uint64_t weight = 0;
  for (VertexId v : vs) {
    if (v >= g.num_vertices()) return false;
    weight += weights[v];
  }
  if (weight != z) return false;
  // Connectivity by BFS over the member set.
  std::vector<bool> member_seen(vs.size(), false);
  std::vector<std::size_t> queue{0};
  member_seen[0] = true;
  std::size_t reached = 1;
  while (!queue.empty()) {
    const std::size_t i = queue.back();
    queue.pop_back();
    for (std::size_t o = 0; o < vs.size(); ++o) {
      if (!member_seen[o] && g.has_edge(vs[i], vs[o])) {
        member_seen[o] = true;
        ++reached;
        queue.push_back(o);
      }
    }
  }
  return reached == vs.size();
}

bool validate_motif(const Graph& g, const std::vector<std::uint32_t>& colors,
                    const std::vector<std::uint32_t>& motif,
                    const std::vector<VertexId>& vs) {
  if (colors.size() != g.num_vertices()) return false;
  if (motif.empty() || vs.size() != motif.size()) return false;
  std::vector<VertexId> sorted(vs);
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end())
    return false;  // repeated vertex
  for (VertexId v : vs)
    if (v >= g.num_vertices()) return false;
  std::vector<std::uint32_t> got, want(motif);
  got.reserve(vs.size());
  for (VertexId v : vs) got.push_back(colors[v]);
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  if (got != want) return false;
  // Connectivity by BFS over the member set.
  std::vector<bool> member_seen(vs.size(), false);
  std::vector<std::size_t> queue{0};
  member_seen[0] = true;
  std::size_t reached = 1;
  while (!queue.empty()) {
    const std::size_t i = queue.back();
    queue.pop_back();
    for (std::size_t o = 0; o < vs.size(); ++o) {
      if (!member_seen[o] && g.has_edge(vs[i], vs[o])) {
        member_seen[o] = true;
        ++reached;
        queue.push_back(o);
      }
    }
  }
  return reached == vs.size();
}

bool validate_tree_embedding(const Graph& g, const Graph& tree,
                             const std::vector<VertexId>& image) {
  const VertexId k = tree.num_vertices();
  if (image.size() != k || k < 1) return false;
  std::vector<VertexId> sorted(image);
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end())
    return false;  // not injective
  for (VertexId v : image)
    if (v >= g.num_vertices()) return false;
  for (VertexId t = 0; t < k; ++t)
    for (VertexId u : tree.neighbors(t))
      if (t < u && !g.has_edge(image[t], image[u])) return false;
  return true;
}

// ---------------------------------------------------------------------------
// Known-feasible peels
//
// Every witness is a connected subgraph on k vertices (j for scan), so it
// lies inside one component of at least k vertices. A component with fewer
// adds exactly zero to every round's total: each of its terms repeats a
// vertex and cancels in characteristic 2 (a "no" instance evaluates to
// zero). So each oracle call runs only on the residual's components of >= k
// vertices (a one-part partition::induced_view of them), and hashes each of
// their vertices by its index in the residual — the id the full residual's
// oracle would give it; per-vertex inputs are read at that index too, so a
// caller passes them indexed by the residual. Every round total, and
// with it the answer and its round, is then bit-identical to the oracle on
// the whole residual; a residual with no such component is a "no" with no
// oracle run at all. Every call consumes its seed (opt.seed + 1 + call), so
// the survivors and the witness are those of the unrestricted peel.
// ---------------------------------------------------------------------------

namespace {

/// Run chunked_peel over g, asking `oracle(view, keep, seed)` about the
/// part of each residual `keep` that can hold a witness of `size` vertices,
/// seated on its one-part view (see above); returns the survivors.
template <typename Oracle>
std::vector<bool> peel_on_components(const Graph& g, int size,
                                     std::uint64_t seed, Oracle&& oracle) {
  graph::ComponentPass pass(g);
  std::vector<bool> alive(g.num_vertices(), true);
  std::uint64_t call = 0;
  chunked_peel(
      g.num_vertices(),
      [&](const std::vector<VertexId>& keep) {
        const std::uint64_t call_seed = seed + 1 + (++call);
        pass.run(keep, static_cast<std::size_t>(size));
        if (pass.vertices().empty()) return false;
        return oracle(
            partition::induced_view(g, pass.vertices(), pass.keep_index()),
            keep, call_seed);
      },
      alive);
  return alive;
}

/// `values` (one per vertex of g) at the vertices `vs`, in order.
std::vector<std::uint32_t> values_on(const std::vector<VertexId>& vs,
                                     const std::vector<std::uint32_t>& values) {
  std::vector<std::uint32_t> out(vs.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = values[vs[i]];
  return out;
}

}  // namespace

std::optional<std::vector<VertexId>> peel_kpath(const Graph& g, int k,
                                                const WitnessOptions& opt) {
  const auto alive = with_witness_field(opt.field_bits, [&](const auto& f) {
    return peel_on_components(
        g, k, opt.seed,
        [&](const partition::PartView& view, const std::vector<VertexId>&,
            std::uint64_t seed) {
          DetectOptions dv = oracle_options(opt, k);
          dv.seed = seed;
          return detect_kpath_seq(view, dv, f).found;
        });
  });
  const auto sub = graph::induced_subgraph(g, alive_list(alive));
  auto local = exact_kpath(sub.graph, k);
  if (!local) return std::nullopt;  // no witness: the caller's "yes" lied
  std::vector<VertexId> path;
  path.reserve(local->size());
  for (VertexId v : *local) path.push_back(sub.to_original[v]);
  return path;
}

std::optional<std::vector<VertexId>> peel_connected_subgraph(
    const Graph& g, const std::vector<std::uint32_t>& weights, int j,
    std::uint32_t z, const WitnessOptions& opt) {
  MIDAS_REQUIRE(weights.size() == g.num_vertices(),
                "one weight per vertex required");
  ScanOptions s;
  s.k = j;
  s.epsilon = opt.epsilon;
  s.kernel = opt.kernel;
  s.watch_j = j;  // the oracle only cares about cell (j, z)
  s.watch_z = z;
  // The restricted table's weight bound may be lower than the residual's;
  // a cell above it is zero on both, since no connected j-set reaches it.
  const auto alive = with_witness_field(opt.field_bits, [&](const auto& f) {
    return peel_on_components(
        g, j, opt.seed,
        [&](const partition::PartView& view,
            const std::vector<VertexId>& keep, std::uint64_t seed) {
          ScanOptions sv = s;
          sv.seed = seed;
          return detect_scan_seq(view, values_on(keep, weights), sv, f)
              .at(j, z);
        });
  });
  const auto sub = graph::induced_subgraph(g, alive_list(alive));
  auto local = exact_connected_subgraph(
      sub.graph, values_on(sub.to_original, weights), j, z);
  if (!local) return std::nullopt;
  std::vector<VertexId> subset;
  subset.reserve(local->size());
  for (VertexId v : *local) subset.push_back(sub.to_original[v]);
  std::sort(subset.begin(), subset.end());
  return subset;
}

std::optional<std::vector<VertexId>> peel_tree_embedding(
    const Graph& g, const Graph& tree, const WitnessOptions& opt) {
  const int k = static_cast<int>(tree.num_vertices());
  TreeDecomposition td(tree, 0);
  const auto alive = with_witness_field(opt.field_bits, [&](const auto& f) {
    return peel_on_components(
        g, k, opt.seed,
        [&](const partition::PartView& view, const std::vector<VertexId>&,
            std::uint64_t seed) {
          DetectOptions dv = oracle_options(opt, k);
          dv.seed = seed;
          return detect_ktree_seq(view, td, dv, f).found;
        });
  });
  const auto sub = graph::induced_subgraph(g, alive_list(alive));
  auto local = exact_tree_embedding(sub.graph, tree);
  if (!local) return std::nullopt;
  std::vector<VertexId> mapped(static_cast<std::size_t>(k));
  for (int t = 0; t < k; ++t)
    mapped[static_cast<std::size_t>(t)] =
        sub.to_original[(*local)[static_cast<std::size_t>(t)]];
  return mapped;
}

std::optional<std::vector<VertexId>> peel_motif(
    const Graph& g, const std::vector<std::uint32_t>& colors,
    const std::vector<std::uint32_t>& motif, const WitnessOptions& opt) {
  MIDAS_REQUIRE(colors.size() == g.num_vertices(),
                "one color per vertex required");
  MIDAS_REQUIRE(!motif.empty(), "motif must be nonempty");
  const int k = static_cast<int>(motif.size());
  const auto alive = with_witness_field(opt.field_bits, [&](const auto& f) {
    return peel_on_components(
        g, k, opt.seed,
        [&](const partition::PartView& view,
            const std::vector<VertexId>& keep, std::uint64_t seed) {
          DetectOptions dv = oracle_options(opt, k);
          dv.seed = seed;
          return detect_motif_seq(view, values_on(keep, colors), motif, dv,
                                  f)
              .found;
        });
  });
  const auto sub = graph::induced_subgraph(g, alive_list(alive));
  auto local =
      exact_motif(sub.graph, values_on(sub.to_original, colors), motif);
  if (!local) return std::nullopt;  // no witness: the caller's "yes" lied
  std::vector<VertexId> vs;
  vs.reserve(local->size());
  for (VertexId v : *local) vs.push_back(sub.to_original[v]);
  std::sort(vs.begin(), vs.end());
  return vs;
}

// ---------------------------------------------------------------------------
// Self-contained extractors (initial detection + peel)
// ---------------------------------------------------------------------------

std::optional<std::vector<VertexId>> extract_kpath(
    const Graph& g, int k, const WitnessOptions& opt) {
  const bool found = with_witness_field(opt.field_bits, [&](const auto& f) {
    return detect_kpath_seq(g, oracle_options(opt, k), f).found;
  });
  if (!found) return std::nullopt;
  return peel_kpath(g, k, opt);
}

std::optional<std::vector<VertexId>> extract_connected_subgraph(
    const Graph& g, const std::vector<std::uint32_t>& weights, int j,
    std::uint32_t z, const WitnessOptions& opt) {
  MIDAS_REQUIRE(weights.size() == g.num_vertices(),
                "one weight per vertex required");
  ScanOptions s;
  s.k = j;
  s.epsilon = opt.epsilon;
  s.seed = opt.seed;
  s.kernel = opt.kernel;
  s.watch_j = j;
  s.watch_z = z;
  const bool found = with_witness_field(opt.field_bits, [&](const auto& f) {
    return detect_scan_seq(g, weights, s, f).at(j, z);
  });
  if (!found) return std::nullopt;
  return peel_connected_subgraph(g, weights, j, z, opt);
}

std::optional<std::vector<VertexId>> extract_motif(
    const Graph& g, const std::vector<std::uint32_t>& colors,
    const std::vector<std::uint32_t>& motif, const WitnessOptions& opt) {
  MIDAS_REQUIRE(colors.size() == g.num_vertices(),
                "one color per vertex required");
  const int k = static_cast<int>(motif.size());
  const bool found = with_witness_field(opt.field_bits, [&](const auto& f) {
    return detect_motif_seq(g, colors, motif, oracle_options(opt, k), f)
        .found;
  });
  if (!found) return std::nullopt;
  return peel_motif(g, colors, motif, opt);
}

std::optional<std::vector<VertexId>> extract_directed_kpath(
    const graph::DiGraph& g, int k, const WitnessOptions& opt) {
  DetectOptions d = oracle_options(opt, k);
  // Induced sub-digraph on a kept set, with the id mapping.
  auto induced = [&](const std::vector<VertexId>& keep) {
    std::vector<VertexId> sorted(keep);
    std::sort(sorted.begin(), sorted.end());
    std::vector<VertexId> new_id(g.num_vertices(), graph::kUnreachable);
    for (VertexId i = 0; i < sorted.size(); ++i) new_id[sorted[i]] = i;
    graph::DiGraphBuilder b(static_cast<VertexId>(sorted.size()));
    for (VertexId u : sorted)
      for (VertexId w : g.out_neighbors(u))
        if (new_id[w] != graph::kUnreachable) b.add_edge(new_id[u],
                                                         new_id[w]);
    return std::make_pair(b.build(), std::move(sorted));
  };
  std::vector<bool> alive(g.num_vertices(), true);
  std::uint64_t call = 0;
  const bool peeled = with_witness_field(opt.field_bits, [&](const auto& f) {
    {
      std::vector<VertexId> all(g.num_vertices());
      for (VertexId v = 0; v < g.num_vertices(); ++v) all[v] = v;
      auto [sub, _] = induced(all);
      if (!detect_kpath_directed_seq(sub, d, f).found) return false;
    }
    chunked_peel(
        g.num_vertices(),
        [&](const std::vector<VertexId>& keep) {
          auto [sub, _] = induced(keep);
          DetectOptions dv = d;
          dv.seed = opt.seed + 1 + (++call);
          return detect_kpath_directed_seq(sub, dv, f).found;
        },
        alive);
    return true;
  });
  if (!peeled) return std::nullopt;
  auto [sub, to_original] = induced(alive_list(alive));
  // Exact DFS over directed simple paths in the (small) survivor graph.
  std::vector<bool> used(sub.num_vertices(), false);
  std::vector<VertexId> path;
  std::function<bool(VertexId)> extend = [&](VertexId v) -> bool {
    used[v] = true;
    path.push_back(v);
    if (static_cast<int>(path.size()) == k) return true;
    for (VertexId u : sub.out_neighbors(v)) {
      if (!used[u] && extend(u)) return true;
    }
    used[v] = false;
    path.pop_back();
    return false;
  };
  for (VertexId s = 0; s < sub.num_vertices(); ++s) {
    if (extend(s)) {
      std::vector<VertexId> out;
      out.reserve(path.size());
      for (VertexId v : path) out.push_back(to_original[v]);
      return out;
    }
  }
  return std::nullopt;
}

std::optional<std::vector<VertexId>> extract_tree_embedding(
    const Graph& g, const Graph& tree, const WitnessOptions& opt) {
  const int k = static_cast<int>(tree.num_vertices());
  TreeDecomposition td(tree, 0);
  const bool found = with_witness_field(opt.field_bits, [&](const auto& f) {
    return detect_ktree_seq(g, td, oracle_options(opt, k), f).found;
  });
  if (!found) return std::nullopt;
  return peel_tree_embedding(g, tree, opt);
}

}  // namespace midas::core
