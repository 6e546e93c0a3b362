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

/// One component pass over the subgraph of g induced on a kept set: which
/// kept vertices lie in a connected component of at least k vertices. The
/// result lists them ascending, each with its index in `keep`. A pass
/// builds no induced subgraph, and its scratch is sized to g once, so a
/// caller that asks many times about one graph (the witness peel) pays for
/// no n-sized allocation per call.
class ComponentPass {
 public:
  explicit ComponentPass(const Graph& g);

  /// Recompute for `keep` (ascending, no duplicates) and k >= 1.
  void run(const std::vector<VertexId>& keep, std::size_t k);

  /// Kept vertices in components of >= k vertices, ascending.
  [[nodiscard]] const std::vector<VertexId>& vertices() const {
    return vertices_;
  }
  /// keep_index()[i] is the index of vertices()[i] in `keep`.
  [[nodiscard]] const std::vector<VertexId>& keep_index() const {
    return keep_index_;
  }

 private:
  const Graph* g_;
  std::vector<VertexId> slot_;  // per vertex of g: index in keep, or none
  std::vector<std::uint8_t> state_;  // per index in keep
  std::vector<VertexId> stack_, members_;
  std::vector<VertexId> vertices_, keep_index_;
};

/// True if some connected component of the subgraph induced on `keep` (any
/// order) has at least k >= 1 vertices.
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
