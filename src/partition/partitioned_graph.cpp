#include "partition/partitioned_graph.hpp"

#include <algorithm>
#include <unordered_map>

#include "util/require.hpp"

namespace midas::partition {

std::uint64_t PartView::send_volume() const noexcept {
  std::uint64_t total = 0;
  for (const auto& lst : send_to) total += lst.size();
  return total;
}

namespace {

// boundary = sorted unique union of the send lists.
void build_boundaries(std::vector<PartView>& views) {
  for (auto& view : views) {
    auto& b = view.boundary;
    b.clear();
    for (const auto& list : view.send_to)
      b.insert(b.end(), list.begin(), list.end());
    std::sort(b.begin(), b.end());
    b.erase(std::unique(b.begin(), b.end()), b.end());
  }
}

}  // namespace

std::vector<PartView> build_part_views(const graph::Graph& g,
                                       const Partition& p) {
  using graph::VertexId;
  const VertexId n = g.num_vertices();
  MIDAS_REQUIRE(p.owner.size() == n, "partition does not match graph");
  const int parts = p.parts;

  std::vector<PartView> views(static_cast<std::size_t>(parts));
  // Owned vertices per part (ascending, since we scan ids in order), and
  // the global -> local index map.
  std::vector<std::uint32_t> local_index(n);
  for (VertexId v = 0; v < n; ++v) {
    auto& view = views[static_cast<std::size_t>(p.owner[v])];
    local_index[v] = static_cast<std::uint32_t>(view.vertices.size());
    view.vertices.push_back(v);
  }

  for (int s = 0; s < parts; ++s) {
    auto& view = views[static_cast<std::size_t>(s)];
    view.part = s;
    view.send_to.assign(static_cast<std::size_t>(parts), {});
    view.recv_from.assign(static_cast<std::size_t>(parts), {});

    // Pass 1: discover ghosts (remote neighbors) and which targets need each
    // local vertex.
    std::unordered_map<VertexId, std::uint32_t> ghost_index;
    std::vector<std::vector<bool>> sends_to_part;  // lazily sized below
    sends_to_part.assign(static_cast<std::size_t>(parts),
                         std::vector<bool>());
    for (std::uint32_t li = 0; li < view.num_local(); ++li) {
      const VertexId u = view.vertices[li];
      for (VertexId v : g.neighbors(u)) {
        const int t = p.owner[v];
        if (t == s) continue;
        if (!ghost_index.count(v)) ghost_index.emplace(v, 0);
        auto& mask = sends_to_part[static_cast<std::size_t>(t)];
        if (mask.empty()) mask.assign(view.num_local(), false);
        mask[li] = true;
      }
    }
    // Ghost ids ascending; assign dense indices.
    view.ghosts.reserve(ghost_index.size());
    for (const auto& [gid, _] : ghost_index) view.ghosts.push_back(gid);
    std::sort(view.ghosts.begin(), view.ghosts.end());
    for (std::uint32_t gi = 0; gi < view.num_ghosts(); ++gi)
      ghost_index[view.ghosts[gi]] = gi;

    // Send lists: ascending local index == ascending global id.
    for (int t = 0; t < parts; ++t) {
      const auto& mask = sends_to_part[static_cast<std::size_t>(t)];
      if (mask.empty()) continue;
      for (std::uint32_t li = 0; li < view.num_local(); ++li)
        if (mask[li])
          view.send_to[static_cast<std::size_t>(t)].push_back(li);
    }

    // Pass 2: local CSR with encoded refs.
    view.adj_offsets.assign(view.num_local() + 1, 0);
    std::uint64_t total_deg = 0;
    for (std::uint32_t li = 0; li < view.num_local(); ++li)
      total_deg += g.degree(view.vertices[li]);
    view.adj.reserve(total_deg);
    for (std::uint32_t li = 0; li < view.num_local(); ++li) {
      const VertexId u = view.vertices[li];
      for (VertexId v : g.neighbors(u)) {
        if (p.owner[v] == s) {
          view.adj.push_back(NbrRef::local(local_index[v]));
        } else {
          view.adj.push_back(NbrRef::ghost(ghost_index[v]));
        }
      }
      view.adj_offsets[li + 1] = view.adj.size();
    }
  }

  // Receive plans: part s receives from part t exactly t's send_to[s] set,
  // in ascending global id order; map those globals to s's ghost indices.
  for (int s = 0; s < parts; ++s) {
    auto& view = views[static_cast<std::size_t>(s)];
    std::unordered_map<VertexId, std::uint32_t> ghost_of;
    ghost_of.reserve(view.ghosts.size());
    for (std::uint32_t gi = 0; gi < view.num_ghosts(); ++gi)
      ghost_of.emplace(view.ghosts[gi], gi);
    for (int t = 0; t < parts; ++t) {
      if (t == s) continue;
      const auto& sender = views[static_cast<std::size_t>(t)];
      const auto& send_list = sender.send_to[static_cast<std::size_t>(s)];
      auto& recv = view.recv_from[static_cast<std::size_t>(t)];
      recv.reserve(send_list.size());
      for (std::uint32_t li : send_list) {
        const VertexId gid = sender.vertices[li];
        const auto it = ghost_of.find(gid);
        MIDAS_ASSERT(it != ghost_of.end(),
                     "sender emits a vertex receiver does not ghost");
        recv.push_back(it->second);
      }
    }
  }
  build_boundaries(views);
  return views;
}

std::vector<PartView> build_dipart_views(const graph::DiGraph& g,
                                         const Partition& p) {
  using graph::VertexId;
  const VertexId n = g.num_vertices();
  MIDAS_REQUIRE(p.owner.size() == n, "partition does not match graph");
  const int parts = p.parts;

  std::vector<PartView> views(static_cast<std::size_t>(parts));
  std::vector<std::uint32_t> local_index(n);
  for (VertexId v = 0; v < n; ++v) {
    auto& view = views[static_cast<std::size_t>(p.owner[v])];
    local_index[v] = static_cast<std::uint32_t>(view.vertices.size());
    view.vertices.push_back(v);
  }

  for (int s = 0; s < parts; ++s) {
    auto& view = views[static_cast<std::size_t>(s)];
    view.part = s;
    view.send_to.assign(static_cast<std::size_t>(parts), {});
    view.recv_from.assign(static_cast<std::size_t>(parts), {});

    // Ghosts: remote *in*-neighbors of local vertices. Send lists: local
    // vertices with an *out*-edge into the target part.
    std::unordered_map<VertexId, std::uint32_t> ghost_index;
    std::vector<std::vector<bool>> sends_to_part(
        static_cast<std::size_t>(parts));
    for (std::uint32_t li = 0; li < view.num_local(); ++li) {
      const VertexId u = view.vertices[li];
      for (VertexId w : g.in_neighbors(u)) {
        if (p.owner[w] != s && !ghost_index.count(w))
          ghost_index.emplace(w, 0);
      }
      for (VertexId w : g.out_neighbors(u)) {
        const int t = p.owner[w];
        if (t == s) continue;
        auto& mask = sends_to_part[static_cast<std::size_t>(t)];
        if (mask.empty()) mask.assign(view.num_local(), false);
        mask[li] = true;
      }
    }
    view.ghosts.reserve(ghost_index.size());
    for (const auto& [gid, _] : ghost_index) view.ghosts.push_back(gid);
    std::sort(view.ghosts.begin(), view.ghosts.end());
    for (std::uint32_t gi = 0; gi < view.num_ghosts(); ++gi)
      ghost_index[view.ghosts[gi]] = gi;

    for (int t = 0; t < parts; ++t) {
      const auto& mask = sends_to_part[static_cast<std::size_t>(t)];
      if (mask.empty()) continue;
      for (std::uint32_t li = 0; li < view.num_local(); ++li)
        if (mask[li])
          view.send_to[static_cast<std::size_t>(t)].push_back(li);
    }

    view.adj_offsets.assign(view.num_local() + 1, 0);
    std::uint64_t total_deg = 0;
    for (std::uint32_t li = 0; li < view.num_local(); ++li)
      total_deg += g.in_degree(view.vertices[li]);
    view.adj.reserve(total_deg);
    for (std::uint32_t li = 0; li < view.num_local(); ++li) {
      const VertexId u = view.vertices[li];
      for (VertexId w : g.in_neighbors(u)) {
        if (p.owner[w] == s) {
          view.adj.push_back(NbrRef::local(local_index[w]));
        } else {
          view.adj.push_back(NbrRef::ghost(ghost_index[w]));
        }
      }
      view.adj_offsets[li + 1] = view.adj.size();
    }
  }

  // Receive plans mirror the senders' out-edge lists: s receives from t
  // exactly t's vertices with out-edges into s, ascending — which is
  // exactly s's ghost subset owned by t.
  for (int s = 0; s < parts; ++s) {
    auto& view = views[static_cast<std::size_t>(s)];
    std::unordered_map<VertexId, std::uint32_t> ghost_of;
    ghost_of.reserve(view.ghosts.size());
    for (std::uint32_t gi = 0; gi < view.num_ghosts(); ++gi)
      ghost_of.emplace(view.ghosts[gi], gi);
    for (int t = 0; t < parts; ++t) {
      if (t == s) continue;
      const auto& sender = views[static_cast<std::size_t>(t)];
      const auto& send_list = sender.send_to[static_cast<std::size_t>(s)];
      auto& recv = view.recv_from[static_cast<std::size_t>(t)];
      recv.reserve(send_list.size());
      for (std::uint32_t li : send_list) {
        const VertexId gid = sender.vertices[li];
        const auto it = ghost_of.find(gid);
        MIDAS_ASSERT(it != ghost_of.end(),
                     "directed sender emits a vertex receiver lacks");
        recv.push_back(it->second);
      }
    }
  }
  build_boundaries(views);
  return views;
}

PartView induced_view(const graph::Graph& g,
                      const std::vector<graph::VertexId>& vertices,
                      std::span<const graph::VertexId> hash_ids) {
  using graph::VertexId;
  MIDAS_REQUIRE(hash_ids.empty() || hash_ids.size() == vertices.size(),
                "hash ids: none, or one per vertex");
  constexpr std::uint32_t kOut = ~std::uint32_t{0};
  std::vector<std::uint32_t> local_index(g.num_vertices(), kOut);
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    MIDAS_REQUIRE(vertices[i] < g.num_vertices() &&
                      (i == 0 || vertices[i - 1] < vertices[i]),
                  "induced view: vertices must be in range and ascending");
    local_index[vertices[i]] = static_cast<std::uint32_t>(i);
  }
  PartView view;
  if (hash_ids.empty())
    view.vertices = vertices;
  else
    view.vertices.assign(hash_ids.begin(), hash_ids.end());
  view.send_to.assign(1, {});
  view.recv_from.assign(1, {});
  view.adj_offsets.assign(vertices.size() + 1, 0);
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    for (VertexId v : g.neighbors(vertices[i]))
      if (local_index[v] != kOut)
        view.adj.push_back(NbrRef::local(local_index[v]));
    view.adj_offsets[i + 1] = view.adj.size();
  }
  return view;
}

}  // namespace midas::partition
