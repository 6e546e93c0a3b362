// Witness extraction by oracle self-reduction.
//
// Multilinear detection is a decision procedure; applications (e.g. the
// congestion case study of Section VI-F) want the actual subgraph. We
// recover one by peeling: repeatedly delete a vertex and re-run detection
// on the residual graph — if the answer stays "yes" the vertex was not
// essential. When no vertex can be deleted, the survivors are exactly the
// vertices of one witness (for k-path: the path's k vertices; for scan: the
// detected (j, z) subgraph), because any two distinct witnesses would let
// us delete a vertex unique to one of them. A final exact search inside
// the (tiny) survivor set orders/validates the witness.
//
// Detection is one-sided: "yes" may be missed with probability <= epsilon
// per call. Oracle misses are benign here — a missed "yes" merely keeps a
// removable vertex, and the final exact search tolerates extra survivors —
// so the default epsilon is a loose 1e-2 (few rounds per call). The flip
// side is load-bearing for the service's certified-answer mode
// (service/integrity.hpp): when the graph genuinely contains a witness,
// peeling can NEVER lose it (a chunk is only deleted when the oracle
// proves the residual still feasible, and oracle "yes" answers are never
// wrong), so the exact search failing to find one proves the original
// "yes" was corrupt.
//
// Two API layers:
//  * extract_* — self-contained: run an initial full-graph detection, then
//    peel. Returns nullopt when the initial detection misses.
//  * peel_* — for callers that already KNOW the graph is feasible (the
//    detection service holds a "yes" from the engine): skips the initial
//    full-graph run and goes straight to peeling, honoring the requested
//    field width and kernel. Returns nullopt only when no witness exists —
//    i.e. the caller's "yes" was wrong.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/detect_directed.hpp"
#include "core/detect_seq.hpp"
#include "graph/csr.hpp"

namespace midas::core {

struct WitnessOptions {
  double epsilon = 1e-2;   // per-oracle-call failure bound (misses are benign:
                           // a kept removable vertex, fixed by the final
                           // exact search)
  std::uint64_t seed = 1;
  int field_bits = 8;      // oracle field: 8 = GF(2^8), else GFSmall(l)
  Kernel kernel = Kernel::kAuto;  // oracle inner-loop kernel
};

/// The generic peel driver, exposed for tests (adversarial oracles) and
/// custom reductions. `feasible_on(keep)` answers "does the subgraph
/// induced on `keep` still contain a witness?" with one-sided error: a
/// "yes" must never be wrong, a "no" may be a miss. Misses only ever keep
/// removable vertices alive — when the full vertex set contains a witness,
/// so does every alive-set this driver produces.
void chunked_peel(
    graph::VertexId n,
    const std::function<bool(const std::vector<graph::VertexId>&)>&
        feasible_on,
    std::vector<bool>& alive);

/// Find an actual simple path on k vertices, or nullopt if none is found.
/// The returned sequence is a valid path in g (verified exactly).
[[nodiscard]] std::optional<std::vector<graph::VertexId>> extract_kpath(
    const graph::Graph& g, int k, const WitnessOptions& opt = {});

/// Find an actual connected subgraph with exactly j vertices and total
/// weight z (under `weights`), or nullopt. Verified exactly on return.
[[nodiscard]] std::optional<std::vector<graph::VertexId>>
extract_connected_subgraph(const graph::Graph& g,
                           const std::vector<std::uint32_t>& weights, int j,
                           std::uint32_t z, const WitnessOptions& opt = {});

/// Find an actual Graph Motif occurrence: a connected vertex set whose
/// color multiset equals `motif` (sorted ids; verified exactly on return),
/// or nullopt if none is found.
[[nodiscard]] std::optional<std::vector<graph::VertexId>> extract_motif(
    const graph::Graph& g, const std::vector<std::uint32_t>& colors,
    const std::vector<std::uint32_t>& motif, const WitnessOptions& opt = {});

/// Directed variant of extract_kpath: the returned sequence is a valid
/// directed path (edges from each vertex to its successor).
[[nodiscard]] std::optional<std::vector<graph::VertexId>>
extract_directed_kpath(const graph::DiGraph& g, int k,
                       const WitnessOptions& opt = {});

/// Find an actual embedding of the template tree: the returned vector maps
/// template vertex -> graph vertex (injective, edge-preserving; verified
/// exactly on return). nullopt if no embedding is found.
[[nodiscard]] std::optional<std::vector<graph::VertexId>>
extract_tree_embedding(const graph::Graph& g, const graph::Graph& tree,
                       const WitnessOptions& opt = {});

// ---------------------------------------------------------------------------
// Known-feasible peel entry points (no initial full-graph detection)
// ---------------------------------------------------------------------------

/// Peel a k-path witness out of a graph the caller knows is feasible.
[[nodiscard]] std::optional<std::vector<graph::VertexId>> peel_kpath(
    const graph::Graph& g, int k, const WitnessOptions& opt = {});

/// Peel a connected (j, z) subgraph out of a known-feasible graph.
[[nodiscard]] std::optional<std::vector<graph::VertexId>>
peel_connected_subgraph(const graph::Graph& g,
                        const std::vector<std::uint32_t>& weights, int j,
                        std::uint32_t z, const WitnessOptions& opt = {});

/// Peel a tree embedding out of a known-feasible graph.
[[nodiscard]] std::optional<std::vector<graph::VertexId>>
peel_tree_embedding(const graph::Graph& g, const graph::Graph& tree,
                    const WitnessOptions& opt = {});

/// Peel a motif occurrence out of a known-feasible graph.
[[nodiscard]] std::optional<std::vector<graph::VertexId>> peel_motif(
    const graph::Graph& g, const std::vector<std::uint32_t>& colors,
    const std::vector<std::uint32_t>& motif, const WitnessOptions& opt = {});

// ---------------------------------------------------------------------------
// Exact searches (exponential time: the peel's final step on its small
// survivor set). Ids are local to g; nullopt when g holds no witness.
// ---------------------------------------------------------------------------

/// First simple k-path found by DFS from each start vertex in id order.
[[nodiscard]] std::optional<std::vector<graph::VertexId>> exact_kpath(
    const graph::Graph& g, int k);

/// A connected set of exactly j vertices with total weight z.
[[nodiscard]] std::optional<std::vector<graph::VertexId>>
exact_connected_subgraph(const graph::Graph& g,
                         const std::vector<std::uint32_t>& weights, int j,
                         std::uint32_t z);

/// A connected set whose color multiset equals `motif` (any order).
[[nodiscard]] std::optional<std::vector<graph::VertexId>> exact_motif(
    const graph::Graph& g, const std::vector<std::uint32_t>& colors,
    const std::vector<std::uint32_t>& motif);

/// An embedding of `tree` into g (template vertex -> graph vertex), by
/// backtracking.
[[nodiscard]] std::optional<std::vector<graph::VertexId>>
exact_tree_embedding(const graph::Graph& g, const graph::Graph& tree);

// ---------------------------------------------------------------------------
// Exact witness validators (no randomness; the certification last word)
// ---------------------------------------------------------------------------

/// Is `path` a simple path of exactly k distinct vertices in g?
[[nodiscard]] bool validate_kpath(const graph::Graph& g,
                                  const std::vector<graph::VertexId>& path,
                                  int k);

/// Is `vs` a connected vertex set of exactly j vertices with total weight
/// z under `weights`?
[[nodiscard]] bool validate_connected_subgraph(
    const graph::Graph& g, const std::vector<std::uint32_t>& weights, int j,
    std::uint32_t z, const std::vector<graph::VertexId>& vs);

/// Is `image` (template vertex -> graph vertex) an injective,
/// edge-preserving embedding of `tree` into g?
[[nodiscard]] bool validate_tree_embedding(
    const graph::Graph& g, const graph::Graph& tree,
    const std::vector<graph::VertexId>& image);

/// Is `vs` a connected set of distinct vertices whose color multiset under
/// `colors` equals `motif`?
[[nodiscard]] bool validate_motif(const graph::Graph& g,
                                  const std::vector<std::uint32_t>& colors,
                                  const std::vector<std::uint32_t>& motif,
                                  const std::vector<graph::VertexId>& vs);

}  // namespace midas::core
