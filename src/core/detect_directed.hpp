// Directed k-path detection.
//
// Identical algebra to the undirected detector; the DP extends walks along
// in-edges (a directed walk ending at i came from an in-neighbor), so the
// k-path phase bodies run unchanged on a one-part in-neighbour view
// (partition::build_dipart_views), as the distributed engine does. Every
// directed simple path is a single witness — there is no direction pairing
// — but the per-(vertex, level) coefficients are still required to stop
// distinct paths over the same vertex set from cancelling each other.
#pragma once

#include "core/detect_seq.hpp"
#include "graph/digraph.hpp"
#include "partition/partitioned_graph.hpp"

namespace midas::core {

/// Decide whether the digraph contains a directed simple path on exactly
/// k vertices. One-sided error as in Theorem 1.
template <gf::GaloisField F>
DetectResult detect_kpath_directed_seq(const graph::DiGraph& g,
                                       const DetectOptions& opt,
                                       const F& f = F{}) {
  MIDAS_REQUIRE(opt.k >= 1 && opt.k <= 28, "k must be in [1,28]");
  const partition::Partition one_part{
      1, std::vector<int>(g.num_vertices(), 0)};
  return detect_kpath_seq(partition::build_dipart_views(g, one_part)[0], opt,
                          f);
}

}  // namespace midas::core
