#include "graph/algorithms.hpp"

#include <algorithm>
#include <deque>
#include <unordered_set>

#include "util/require.hpp"

namespace midas::graph {

std::vector<std::uint32_t> bfs_distances(const Graph& g, VertexId source) {
  MIDAS_REQUIRE(source < g.num_vertices(), "BFS source out of range");
  std::vector<std::uint32_t> dist(g.num_vertices(), kUnreachable);
  std::deque<VertexId> queue{source};
  dist[source] = 0;
  while (!queue.empty()) {
    const VertexId u = queue.front();
    queue.pop_front();
    for (VertexId v : g.neighbors(u)) {
      if (dist[v] == kUnreachable) {
        dist[v] = dist[u] + 1;
        queue.push_back(v);
      }
    }
  }
  return dist;
}

std::vector<VertexId> connected_components(const Graph& g) {
  const VertexId n = g.num_vertices();
  std::vector<VertexId> label(n, kUnreachable);
  VertexId next = 0;
  std::vector<VertexId> stack;
  for (VertexId s = 0; s < n; ++s) {
    if (label[s] != kUnreachable) continue;
    label[s] = next;
    stack.push_back(s);
    while (!stack.empty()) {
      const VertexId u = stack.back();
      stack.pop_back();
      for (VertexId v : g.neighbors(u)) {
        if (label[v] == kUnreachable) {
          label[v] = next;
          stack.push_back(v);
        }
      }
    }
    ++next;
  }
  return label;
}

VertexId num_components(const Graph& g) {
  const auto labels = connected_components(g);
  return labels.empty() ? 0 : *std::max_element(labels.begin(), labels.end()) + 1;
}

bool is_connected_subset(const Graph& g,
                         const std::vector<VertexId>& subset) {
  if (subset.empty()) return false;
  std::unordered_set<VertexId> members(subset.begin(), subset.end());
  std::unordered_set<VertexId> visited{subset[0]};
  std::vector<VertexId> stack{subset[0]};
  while (!stack.empty()) {
    const VertexId u = stack.back();
    stack.pop_back();
    for (VertexId v : g.neighbors(u)) {
      if (members.count(v) && !visited.count(v)) {
        visited.insert(v);
        stack.push_back(v);
      }
    }
  }
  return visited.size() == members.size();
}

InducedSubgraph induced_subgraph(const Graph& g,
                                 const std::vector<VertexId>& vertices) {
  InducedSubgraph out;
  out.to_original = vertices;
  std::sort(out.to_original.begin(), out.to_original.end());
  out.to_original.erase(
      std::unique(out.to_original.begin(), out.to_original.end()),
      out.to_original.end());
  std::vector<VertexId> new_id(g.num_vertices(), kUnreachable);
  for (VertexId i = 0; i < out.to_original.size(); ++i)
    new_id[out.to_original[i]] = i;
  GraphBuilder b(static_cast<VertexId>(out.to_original.size()));
  for (VertexId u : out.to_original) {
    for (VertexId v : g.neighbors(u)) {
      if (u < v && new_id[v] != kUnreachable)
        b.add_edge(new_id[u], new_id[v]);
    }
  }
  out.graph = b.build();
  return out;
}

ComponentPass::ComponentPass(const Graph& g)
    : g_(&g), slot_(g.num_vertices(), kUnreachable) {}

void ComponentPass::run(const std::vector<VertexId>& keep, std::size_t k) {
  MIDAS_REQUIRE(k >= 1, "component size must be at least 1");
  vertices_.clear();
  keep_index_.clear();
  if (keep.size() < k) return;
  for (std::size_t i = 0; i < keep.size(); ++i)
    MIDAS_REQUIRE(keep[i] < g_->num_vertices() &&
                      (i == 0 || keep[i - 1] < keep[i]),
                  "kept vertices must be in range and ascending");
  for (VertexId i = 0; i < keep.size(); ++i) slot_[keep[i]] = i;
  // 0 = unvisited, 1 = in a component of < k vertices, 2 = of >= k.
  state_.assign(keep.size(), 0);
  for (VertexId s = 0; s < keep.size(); ++s) {
    if (state_[s] != 0) continue;
    state_[s] = 1;
    members_.assign(1, s);
    stack_.assign(1, keep[s]);
    while (!stack_.empty()) {
      const VertexId u = stack_.back();
      stack_.pop_back();
      for (VertexId v : g_->neighbors(u)) {
        const VertexId t = slot_[v];
        if (t == kUnreachable || state_[t] != 0) continue;
        state_[t] = 1;
        members_.push_back(t);
        stack_.push_back(v);
      }
    }
    if (members_.size() >= k)
      for (VertexId t : members_) state_[t] = 2;
  }
  for (VertexId v : keep) slot_[v] = kUnreachable;
  for (VertexId i = 0; i < keep.size(); ++i) {
    if (state_[i] != 2) continue;
    vertices_.push_back(keep[i]);
    keep_index_.push_back(i);
  }
}

bool has_component_of_size(const Graph& g, const std::vector<VertexId>& keep,
                           std::size_t k) {
  std::vector<VertexId> sorted(keep);
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  ComponentPass pass(g);
  pass.run(sorted, k);
  return !pass.vertices().empty();
}

DegreeStats degree_stats(const Graph& g) {
  DegreeStats s;
  const VertexId n = g.num_vertices();
  if (n == 0) return s;
  s.min = g.degree(0);
  for (VertexId v = 0; v < n; ++v) {
    const auto d = g.degree(v);
    s.min = std::min(s.min, d);
    s.max = std::max(s.max, d);
    s.mean += d;
  }
  s.mean /= n;
  return s;
}

}  // namespace midas::graph
