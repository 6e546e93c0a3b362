// Basic graph algorithms shared by partitioners, tests, and workloads.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr.hpp"

namespace midas::graph {

/// BFS distances from `source`; unreachable vertices get kUnreachable.
inline constexpr std::uint32_t kUnreachable = 0xFFFFFFFFu;
[[nodiscard]] std::vector<std::uint32_t> bfs_distances(const Graph& g,
                                                       VertexId source);

/// Connected component label per vertex (labels are 0-based and dense).
[[nodiscard]] std::vector<VertexId> connected_components(const Graph& g);

/// Number of connected components.
[[nodiscard]] VertexId num_components(const Graph& g);

/// True if the vertex subset induces a connected subgraph (empty = false,
/// singleton = true).
[[nodiscard]] bool is_connected_subset(const Graph& g,
                                       const std::vector<VertexId>& subset);

/// Induced subgraph on `vertices` (need not be sorted; duplicates ignored).
/// Returns the subgraph plus the mapping from new ids to original ids.
struct InducedSubgraph {
  Graph graph;
  std::vector<VertexId> to_original;  // new id -> original id
};
[[nodiscard]] InducedSubgraph induced_subgraph(
    const Graph& g, const std::vector<VertexId>& vertices);

/// True if some connected component of the subgraph induced on `keep` has
/// at least k >= 1 vertices. A DFS over g restricted to `keep` that stops
/// as soon as one component reaches k; builds no induced subgraph.
[[nodiscard]] bool has_component_of_size(const Graph& g,
                                         const std::vector<VertexId>& keep,
                                         std::size_t k);

/// Degree distribution summary.
struct DegreeStats {
  std::uint32_t min = 0;
  std::uint32_t max = 0;
  double mean = 0.0;
};
[[nodiscard]] DegreeStats degree_stats(const Graph& g);

}  // namespace midas::graph
