// Partitioners, partition metrics (MAXLOAD / MAXDEG), and the distributed
// PartView halo plans.
#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "graph/generators.hpp"
#include "partition/multilevel.hpp"
#include "partition/partition.hpp"
#include "partition/partitioned_graph.hpp"
#include "util/rng.hpp"

namespace midas::partition {
namespace {

void check_partition_invariants(const Graph& g, const Partition& p) {
  ASSERT_EQ(p.owner.size(), g.num_vertices());
  std::vector<std::uint64_t> load = p.loads();
  std::uint64_t total = 0;
  for (int part = 0; part < p.parts; ++part) {
    EXPECT_GT(load[static_cast<std::size_t>(part)], 0u)
        << "empty part " << part;
    total += load[static_cast<std::size_t>(part)];
  }
  EXPECT_EQ(total, g.num_vertices());
  for (int o : p.owner) {
    EXPECT_GE(o, 0);
    EXPECT_LT(o, p.parts);
  }
}

class Partitioners : public ::testing::TestWithParam<int> {};

TEST_P(Partitioners, InvariantsAcrossSchemes) {
  Xoshiro256 rng(1);
  const Graph g = graph::erdos_renyi_gnm(120, 480, rng);
  const int parts = GetParam();
  Xoshiro256 prng(2);
  for (int scheme = 0; scheme < 4; ++scheme) {
    Partition p;
    switch (scheme) {
      case 0: p = block_partition(g, parts); break;
      case 1: p = random_partition(g, parts, prng); break;
      case 2: p = bfs_partition(g, parts); break;
      default: p = ldg_partition(g, parts); break;
    }
    check_partition_invariants(g, p);
    EXPECT_EQ(p.parts, parts);
  }
}

INSTANTIATE_TEST_SUITE_P(PartCounts, Partitioners,
                         ::testing::Values(1, 2, 3, 5, 8, 16));

TEST(Partitioners, BlockAndRandomAreBalanced) {
  Xoshiro256 rng(3);
  const Graph g = graph::erdos_renyi_gnm(103, 400, rng);  // non-divisible n
  for (int parts : {2, 4, 7}) {
    auto block = block_partition(g, parts);
    auto loads = block.loads();
    const auto [lo, hi] = std::minmax_element(loads.begin(), loads.end());
    EXPECT_LE(*hi - *lo, (103 + parts - 1) / parts);
    Xoshiro256 prng(4);
    auto rand = random_partition(g, parts, prng);
    auto rloads = rand.loads();
    const auto [rlo, rhi] = std::minmax_element(rloads.begin(), rloads.end());
    EXPECT_LE(*rhi - *rlo, 1u) << "round-robin deal differs by at most 1";
  }
}

TEST(Partitioners, BfsBeatsRandomOnMeshes) {
  Xoshiro256 rng(5);
  const Graph g = graph::grid_graph(24, 24);
  const int parts = 8;
  Xoshiro256 prng(6);
  const auto m_rand = compute_metrics(g, random_partition(g, parts, prng));
  const auto m_bfs = compute_metrics(g, bfs_partition(g, parts));
  // On a planar mesh, locality-aware partitioning slashes the cut.
  EXPECT_LT(m_bfs.edge_cut * 2, m_rand.edge_cut);
}

TEST(Partitioners, LabelPropagationOnlyImproves) {
  Xoshiro256 rng(7);
  const Graph g = graph::grid_graph(20, 20);
  Xoshiro256 prng(8);
  Partition p = random_partition(g, 4, prng);
  const auto before = compute_metrics(g, p);
  label_propagation_refine(g, p, 5);
  const auto after = compute_metrics(g, p);
  EXPECT_LE(after.edge_cut, before.edge_cut);
  for (auto l : p.loads()) EXPECT_GT(l, 0u);
}

TEST(Metrics, MatchPaperDefinitions) {
  // Two triangles joined by one bridge, split across the bridge.
  graph::GraphBuilder b(6);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(0, 2);
  b.add_edge(3, 4);
  b.add_edge(4, 5);
  b.add_edge(3, 5);
  b.add_edge(2, 3);  // bridge
  const Graph g = b.build();
  Partition p{2, {0, 0, 0, 1, 1, 1}};
  const auto m = compute_metrics(g, p);
  EXPECT_EQ(m.max_load, 3u);
  EXPECT_EQ(m.edge_cut, 1u);
  EXPECT_EQ(m.deg[0], 1u);  // DEG(j) counts directed boundary edges from j
  EXPECT_EQ(m.deg[1], 1u);
  EXPECT_EQ(m.max_deg, 1u);
}

TEST(Metrics, SinglePartHasNoCut) {
  Xoshiro256 rng(9);
  const Graph g = graph::erdos_renyi_gnm(50, 200, rng);
  const auto m = compute_metrics(g, block_partition(g, 1));
  EXPECT_EQ(m.edge_cut, 0u);
  EXPECT_EQ(m.max_deg, 0u);
  EXPECT_EQ(m.max_load, 50u);
}

TEST(Multilevel, InvariantsAndBalance) {
  Xoshiro256 rng(12);
  const Graph g = graph::erdos_renyi_gnm(300, 1200, rng);
  for (int parts : {2, 4, 8}) {
    const auto p = multilevel_partition(g, parts);
    check_partition_invariants(g, p);
    const auto loads = p.loads();
    const auto [lo, hi] = std::minmax_element(loads.begin(), loads.end());
    // 8% imbalance cap plus matching granularity slack.
    EXPECT_LE(static_cast<double>(*hi),
              300.0 / parts * 1.30 + 2)
        << "parts=" << parts;
    (void)lo;
  }
}

TEST(Multilevel, BeatsNaiveSchemesOnMeshCut) {
  const Graph g = graph::grid_graph(30, 30);
  const int parts = 6;
  Xoshiro256 prng(13);
  const auto m_rand = compute_metrics(g, random_partition(g, parts, prng));
  const auto m_ml = compute_metrics(g, multilevel_partition(g, parts));
  EXPECT_LT(m_ml.edge_cut * 3, m_rand.edge_cut);
}

TEST(Multilevel, WorksOnTinyAndDisconnectedGraphs) {
  // Tiny: parts == vertices.
  const Graph tiny = graph::path_graph(4);
  const auto p4 = multilevel_partition(tiny, 4);
  check_partition_invariants(tiny, p4);
  // Disconnected components.
  graph::GraphBuilder b(10);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  b.add_edge(4, 5);
  const Graph g = b.build();
  const auto p = multilevel_partition(g, 3);
  check_partition_invariants(g, p);
}

TEST(Multilevel, DeterministicPerSeed) {
  Xoshiro256 rng(14);
  const Graph g = graph::erdos_renyi_gnm(120, 400, rng);
  MultilevelOptions opt;
  opt.seed = 77;
  const auto a = multilevel_partition(g, 4, opt);
  const auto b2 = multilevel_partition(g, 4, opt);
  EXPECT_EQ(a.owner, b2.owner);
}

/// FNV-1a over the owner vector: a compact fingerprint of one partition.
std::uint64_t owner_hash(const Partition& p) {
  std::uint64_t h = 1469598103934665603ull;
  for (int o : p.owner) {
    h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(o));
    h *= 1099511628211ull;
  }
  return h;
}

TEST(Multilevel, GoldenOwnersOnServiceSizedGraphs) {
  // The partitions the service builds (and every view, halo plan and vclock
  // downstream of them) must not drift when the partitioner's internals
  // change. Hashes recorded from the hash-map coarsening that preceded the
  // dense accumulator (parts 1..4 per row):
  //   gnp  4000 (avg deg 5, seed 41): 4c6aa4454ec4bf03 fc48d0c4d6306be0
  //                                   05af23c9fab124ca 82fea88b2ce6f875
  //   road 4000 (keep 0.9, seed 42):  4c6aa4454ec4bf03 35228752ee7eef1c
  //                                   d01cfeb92ada577f 1742b7bddc158e58
  //   ba   4000 (attach 2, seed 43):  4c6aa4454ec4bf03 9e4b7c572a4b8f94
  //                                   71eb228326707b3b af64a86be8654d3d
  // At one part every row is the hash of 4000 zero owners.
  Xoshiro256 r1(41), r2(42), r3(43);
  const Graph graphs[3] = {graph::erdos_renyi_gnp(4000, 5.0 / 3999, r1),
                           graph::road_network(4000, 0.9, r2),
                           graph::barabasi_albert(4000, 2, r3)};
  const std::uint64_t golden[3][4] = {
      {0x4c6aa4454ec4bf03, 0xfc48d0c4d6306be0, 0x05af23c9fab124ca,
       0x82fea88b2ce6f875},
      {0x4c6aa4454ec4bf03, 0x35228752ee7eef1c, 0xd01cfeb92ada577f,
       0x1742b7bddc158e58},
      {0x4c6aa4454ec4bf03, 0x9e4b7c572a4b8f94, 0x71eb228326707b3b,
       0xaf64a86be8654d3d},
  };
  for (int gi = 0; gi < 3; ++gi)
    for (int parts = 1; parts <= 4; ++parts) {
      const auto p = multilevel_partition(graphs[gi], parts);
      check_partition_invariants(graphs[gi], p);
      EXPECT_EQ(owner_hash(p), golden[gi][parts - 1])
          << "graph " << gi << " parts " << parts << " hash 0x" << std::hex
          << owner_hash(p);
    }
}

// ---------------------------------------------------------------------------
// PartView / halo plans
// ---------------------------------------------------------------------------

void check_views(const Graph& g, const Partition& p,
                 const std::vector<PartView>& views) {
  ASSERT_EQ(views.size(), static_cast<std::size_t>(p.parts));
  // Every vertex owned exactly once, local ids ascending by global id.
  std::vector<int> owner_seen(g.num_vertices(), -1);
  for (const auto& view : views) {
    EXPECT_TRUE(std::is_sorted(view.vertices.begin(), view.vertices.end()));
    for (graph::VertexId v : view.vertices) {
      EXPECT_EQ(owner_seen[v], -1);
      owner_seen[v] = view.part;
      EXPECT_EQ(p.owner[v], view.part);
    }
    EXPECT_TRUE(std::is_sorted(view.ghosts.begin(), view.ghosts.end()));
    // Ghosts are exactly the remote neighbors of local vertices.
    std::set<graph::VertexId> expected_ghosts;
    for (graph::VertexId v : view.vertices)
      for (graph::VertexId u : g.neighbors(v))
        if (p.owner[u] != view.part) expected_ghosts.insert(u);
    EXPECT_EQ(std::set<graph::VertexId>(view.ghosts.begin(),
                                        view.ghosts.end()),
              expected_ghosts);
    // Local adjacency faithfully mirrors the global graph.
    ASSERT_EQ(view.adj_offsets.size(), view.vertices.size() + 1);
    for (std::uint32_t li = 0; li < view.num_local(); ++li) {
      const graph::VertexId v = view.vertices[li];
      std::multiset<graph::VertexId> expect;
      for (graph::VertexId u : g.neighbors(v)) expect.insert(u);
      std::multiset<graph::VertexId> got;
      for (auto e = view.adj_offsets[li]; e < view.adj_offsets[li + 1]; ++e) {
        const auto ref = view.adj[e];
        got.insert(ref.is_ghost() ? view.ghosts[ref.index()]
                                  : view.vertices[ref.index()]);
      }
      EXPECT_EQ(got, expect) << "vertex " << v;
    }
  }
  // Send/recv plans are mirror images.
  for (int s = 0; s < p.parts; ++s) {
    for (int t = 0; t < p.parts; ++t) {
      if (s == t) continue;
      const auto& send = views[static_cast<std::size_t>(s)]
                             .send_to[static_cast<std::size_t>(t)];
      const auto& recv = views[static_cast<std::size_t>(t)]
                             .recv_from[static_cast<std::size_t>(s)];
      ASSERT_EQ(send.size(), recv.size());
      for (std::size_t i = 0; i < send.size(); ++i) {
        const graph::VertexId global =
            views[static_cast<std::size_t>(s)].vertices[send[i]];
        EXPECT_EQ(views[static_cast<std::size_t>(t)].ghosts[recv[i]], global)
            << "s=" << s << " t=" << t << " i=" << i;
      }
    }
  }
}

TEST(PartView, HaloPlansMirrorAcrossSchemes) {
  Xoshiro256 rng(10);
  const Graph g = graph::erdos_renyi_gnm(60, 240, rng);
  for (int parts : {1, 2, 3, 5}) {
    Xoshiro256 prng(11);
    for (int scheme = 0; scheme < 3; ++scheme) {
      Partition p;
      switch (scheme) {
        case 0: p = block_partition(g, parts); break;
        case 1: p = random_partition(g, parts, prng); break;
        default: p = bfs_partition(g, parts); break;
      }
      check_views(g, p, build_part_views(g, p));
    }
  }
}

TEST(PartView, SendVolumeMatchesBoundaryVertices) {
  const Graph g = graph::path_graph(10);
  Partition p{2, {0, 0, 0, 0, 0, 1, 1, 1, 1, 1}};
  const auto views = build_part_views(g, p);
  // Only the two bridge endpoints (4 and 5) cross the cut.
  EXPECT_EQ(views[0].send_volume(), 1u);
  EXPECT_EQ(views[1].send_volume(), 1u);
  EXPECT_EQ(views[0].num_ghosts(), 1u);
  EXPECT_EQ(views[0].ghosts[0], 5u);
  EXPECT_EQ(views[1].ghosts[0], 4u);
}

TEST(PartView, DisconnectedGraphAndIsolatedVertices) {
  graph::GraphBuilder b(6);
  b.add_edge(0, 1);  // vertices 2..5 isolated
  const Graph g = b.build();
  Partition p{3, {0, 1, 2, 0, 1, 2}};
  const auto views = build_part_views(g, p);
  check_views(g, p, views);
  EXPECT_EQ(views[2].send_volume(), 0u);
}

}  // namespace
}  // namespace midas::partition
