// Distributed view of a partitioned graph.
//
// Each of the N1 ranks of a MIDAS phase owns one part. A PartView gives the
// rank everything it needs without touching the global graph:
//   - its own vertices (global ids + dense local indices),
//   - ghost vertices: remote vertices adjacent to a local vertex,
//   - a local CSR whose neighbor references are encoded as local-or-ghost,
//   - a halo exchange plan: which local vertices to send to which part and
//     where incoming values land in the ghost array.
//
// The plans on the two sides of a (sender, receiver) pair are constructed
// from the same sorted global-id order, so an exchange is a straight memcpy
// gather/scatter with no per-message metadata — this is what lets MIDAS
// batch N2 iterations into a single message (Section IV, batching).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "graph/digraph.hpp"
#include "partition/partition.hpp"

namespace midas::partition {

/// Encoded neighbor reference in the local CSR: local index or ghost index.
struct NbrRef {
  std::uint32_t packed;
  static constexpr std::uint32_t kGhostBit = 0x80000000u;

  [[nodiscard]] bool is_ghost() const noexcept { return packed & kGhostBit; }
  [[nodiscard]] std::uint32_t index() const noexcept {
    return packed & ~kGhostBit;
  }
  static NbrRef local(std::uint32_t idx) noexcept { return {idx}; }
  static NbrRef ghost(std::uint32_t idx) noexcept {
    return {idx | kGhostBit};
  }
};

/// One rank's view of the partitioned graph.
struct PartView {
  int part = 0;

  /// Global ids of owned vertices, ascending; local index = position.
  std::vector<graph::VertexId> vertices;
  /// Global ids of ghost vertices, ascending; ghost index = position.
  std::vector<graph::VertexId> ghosts;

  /// Local CSR over owned vertices; refs point into vertices/ghosts.
  std::vector<std::uint64_t> adj_offsets;  // size vertices.size()+1
  std::vector<NbrRef> adj;

  /// send_to[t] = local indices whose values part t needs, ascending by
  /// global id. Empty for t == part.
  std::vector<std::vector<std::uint32_t>> send_to;
  /// recv_from[t] = ghost indices where values arriving from part t land,
  /// in the exact order part t's send_to[part] emits them.
  std::vector<std::vector<std::uint32_t>> recv_from;

  /// Sorted union of all send_to lists: the local vertices whose values any
  /// other part consumes, i.e. whose plane-native lane blocks the halo
  /// exchanges carry. Precomputed here (instead of per engine run) so a
  /// cached view carries it across queries with zero per-run setup.
  std::vector<std::uint32_t> boundary;

  [[nodiscard]] std::uint32_t num_local() const noexcept {
    return static_cast<std::uint32_t>(vertices.size());
  }
  [[nodiscard]] std::uint32_t num_ghosts() const noexcept {
    return static_cast<std::uint32_t>(ghosts.size());
  }
  /// Total values sent per iteration (sum over targets).
  [[nodiscard]] std::uint64_t send_volume() const noexcept;
  /// Bytes of the local CSR (adjacency plus offsets): what every DP level
  /// streams in the engines' memory-cost model.
  [[nodiscard]] std::uint64_t adjacency_bytes() const noexcept {
    return adj.size() * sizeof(NbrRef) +
           adj_offsets.size() * sizeof(std::uint64_t);
  }
};

/// Build the views of every part. O(m + n) overall.
[[nodiscard]] std::vector<PartView> build_part_views(const graph::Graph& g,
                                                     const Partition& p);

/// Directed variant: `adj` holds *in*-neighbor references (the k-path DP
/// consumes in-neighbors), ghosts are remote in-neighbors, and send lists
/// are the local vertices with out-edges into each target part — the exact
/// mirror of the receivers' ghost sets, in the same sorted order.
[[nodiscard]] std::vector<PartView> build_dipart_views(
    const graph::DiGraph& g, const Partition& p);

/// The one-part view of the subgraph of g induced on `vertices` (ascending,
/// in range): local index = position in `vertices`, `vertices` field =
/// hash_ids (one per vertex; `vertices` itself when empty), no ghosts, and
/// one empty send/receive list — what the sequential detectors seat their
/// one rank on. With all of g's vertices and no hash ids it equals
/// build_part_views over a one-part partition. O(n + the induced edges).
[[nodiscard]] PartView induced_view(
    const graph::Graph& g, const std::vector<graph::VertexId>& vertices,
    std::span<const graph::VertexId> hash_ids = {});

}  // namespace midas::partition
