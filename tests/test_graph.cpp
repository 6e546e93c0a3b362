// CSR graph construction, generators, algorithms, and I/O.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>
#include <set>
#include <fstream>
#include <sstream>

#include "graph/algorithms.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "util/rng.hpp"

namespace midas::graph {
namespace {

TEST(GraphBuilder, DedupSymmetrizeAndStripSelfLoops) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(1, 0);  // duplicate (reversed)
  b.add_edge(0, 1);  // duplicate (same)
  b.add_edge(2, 2);  // self-loop
  b.add_edge(2, 3);
  const Graph g = b.build();
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_TRUE(g.has_edge(2, 3));
  EXPECT_FALSE(g.has_edge(2, 2));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(2), 1u);
}

TEST(GraphBuilder, AdjacencyIsSorted) {
  GraphBuilder b(5);
  b.add_edge(0, 4);
  b.add_edge(0, 2);
  b.add_edge(0, 3);
  b.add_edge(0, 1);
  const Graph g = b.build();
  const auto nbrs = g.neighbors(0);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  EXPECT_EQ(nbrs.size(), 4u);
}

TEST(GraphBuilder, RejectsOutOfRange) {
  GraphBuilder b(3);
  EXPECT_THROW(b.add_edge(0, 3), std::invalid_argument);
  EXPECT_THROW(b.add_edge(7, 1), std::invalid_argument);
}

TEST(GraphBuilder, EmptyGraph) {
  GraphBuilder b(0);
  const Graph g = b.build();
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.max_degree(), 0u);
}

TEST(Shapes, PathCycleStarCompleteGrid) {
  EXPECT_EQ(path_graph(6).num_edges(), 5u);
  EXPECT_EQ(cycle_graph(6).num_edges(), 6u);
  EXPECT_EQ(star_graph(6).num_edges(), 5u);
  EXPECT_EQ(complete_graph(6).num_edges(), 15u);
  const Graph grid = grid_graph(3, 4);
  EXPECT_EQ(grid.num_vertices(), 12u);
  EXPECT_EQ(grid.num_edges(), 3u * 3 + 2u * 4);  // horizontal + vertical
  EXPECT_EQ(star_graph(6).max_degree(), 5u);
}

TEST(Generators, GnmHasExactEdgeCount) {
  Xoshiro256 rng(1);
  const Graph g = erdos_renyi_gnm(100, 300, rng);
  EXPECT_EQ(g.num_vertices(), 100u);
  EXPECT_EQ(g.num_edges(), 300u);
}

TEST(Generators, GnpEdgeCountNearExpectation) {
  Xoshiro256 rng(2);
  const VertexId n = 400;
  const double p = 0.05;
  const Graph g = erdos_renyi_gnp(n, p, rng);
  const double expected = p * n * (n - 1) / 2.0;
  const double sd = std::sqrt(expected * (1 - p));
  EXPECT_NEAR(static_cast<double>(g.num_edges()), expected, 6 * sd);
  // Degenerate ps.
  EXPECT_EQ(erdos_renyi_gnp(50, 0.0, rng).num_edges(), 0u);
  EXPECT_EQ(erdos_renyi_gnp(10, 1.0, rng).num_edges(), 45u);
}

TEST(Generators, BarabasiAlbertDegreeSkew) {
  Xoshiro256 rng(3);
  const Graph g = barabasi_albert(2000, 3, rng);
  EXPECT_EQ(g.num_vertices(), 2000u);
  const auto stats = degree_stats(g);
  // Preferential attachment: max degree far above mean (heavy tail).
  EXPECT_GT(stats.max, 8 * stats.mean);
  EXPECT_GE(stats.min, 3u);  // every late vertex attaches to 3
  EXPECT_EQ(num_components(g), 1u);
}

TEST(Generators, RoadNetworkIsMeshLike) {
  Xoshiro256 rng(4);
  const Graph g = road_network(900, 1.0, rng);
  const auto stats = degree_stats(g);
  EXPECT_LE(stats.max, 10u);  // lattice + a few shortcuts
  EXPECT_GT(g.num_edges(), 1500u);
}

TEST(Generators, RandomTreeIsTree) {
  Xoshiro256 rng(5);
  for (VertexId n : {1u, 2u, 3u, 10u, 57u, 200u}) {
    const Graph t = random_tree(n, rng);
    EXPECT_EQ(t.num_vertices(), n);
    if (n >= 1) {
      EXPECT_EQ(t.num_edges(), n - 1);
      EXPECT_EQ(num_components(t), 1u);
    }
  }
}

TEST(Generators, RmatProducesSkewedGraph) {
  Xoshiro256 rng(6);
  const Graph g = rmat(10, 8, 0.57, 0.19, 0.19, rng);
  EXPECT_EQ(g.num_vertices(), 1024u);
  EXPECT_GT(g.num_edges(), 1000u);
  const auto stats = degree_stats(g);
  EXPECT_GT(stats.max, 4 * stats.mean);
}

TEST(Algorithms, BfsDistancesOnPath) {
  const Graph g = path_graph(6);
  const auto dist = bfs_distances(g, 0);
  for (VertexId v = 0; v < 6; ++v) EXPECT_EQ(dist[v], v);
}

TEST(Algorithms, BfsUnreachable) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  const Graph g = b.build();
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[2], kUnreachable);
  EXPECT_EQ(num_components(g), 2u);
}

TEST(Algorithms, ConnectedSubset) {
  const Graph g = path_graph(5);
  EXPECT_TRUE(is_connected_subset(g, {1, 2, 3}));
  EXPECT_FALSE(is_connected_subset(g, {0, 2}));
  EXPECT_TRUE(is_connected_subset(g, {4}));
  EXPECT_FALSE(is_connected_subset(g, {}));
}

TEST(Algorithms, InducedSubgraph) {
  const Graph g = cycle_graph(6);
  const auto sub = induced_subgraph(g, {1, 2, 3, 5});
  EXPECT_EQ(sub.graph.num_vertices(), 4u);
  // Edges 1-2 and 2-3 survive; 5 is isolated within the subset.
  EXPECT_EQ(sub.graph.num_edges(), 2u);
  EXPECT_EQ(sub.to_original, (std::vector<VertexId>{1, 2, 3, 5}));
  // Mapping consistency: any subgraph edge maps to an original edge.
  for (auto [u, v] : sub.graph.edge_list())
    EXPECT_TRUE(g.has_edge(sub.to_original[u], sub.to_original[v]));
}

TEST(Algorithms, ComponentOfSizeEdgeCases) {
  // Components {0,1,2} (a path), {3,4} and the isolated 5, 6.
  GraphBuilder b(7);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(3, 4);
  const Graph g = b.build();
  // Empty keep: no component at all, whatever k.
  EXPECT_FALSE(has_component_of_size(g, {}, 1));
  EXPECT_FALSE(has_component_of_size(g, {}, 3));
  // k = 1: any kept vertex, isolated or not.
  EXPECT_TRUE(has_component_of_size(g, {5}, 1));
  EXPECT_TRUE(has_component_of_size(g, {2}, 1));
  // Isolated vertices never join up, however many are kept.
  EXPECT_FALSE(has_component_of_size(g, {5, 6}, 2));
  EXPECT_FALSE(has_component_of_size(g, {0, 2, 5, 6}, 2));
  // A component of exactly k vertices counts; k + 1 does not.
  EXPECT_TRUE(has_component_of_size(g, {0, 1, 2, 5}, 3));
  EXPECT_FALSE(has_component_of_size(g, {0, 1, 2, 3, 4, 5, 6}, 4));
  EXPECT_TRUE(has_component_of_size(g, {6, 4, 3}, 2));  // any order
  // The search follows only kept vertices: dropping 1 splits the path.
  EXPECT_FALSE(has_component_of_size(g, {0, 2, 3, 4, 5, 6}, 3));
}

TEST(Algorithms, ComponentOfSizeMatchesInducedComponents) {
  Xoshiro256 rng(88);
  const Graph g = erdos_renyi_gnp(300, 1.2 / 299, rng);  // many fragments
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<VertexId> keep;
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      if (rng.below(3) != 0) keep.push_back(v);
    const auto sub = induced_subgraph(g, keep);
    const auto label = connected_components(sub.graph);
    std::vector<std::size_t> size(sub.graph.num_vertices() + 1, 0);
    for (VertexId l : label) ++size[l];
    const std::size_t largest = *std::max_element(size.begin(), size.end());
    for (std::size_t k = 1; k <= largest + 1; ++k)
      EXPECT_EQ(has_component_of_size(g, keep, k), k <= largest)
          << "trial " << trial << " k " << k;
  }
}

TEST(IO, RoundTripThroughStreams) {
  Xoshiro256 rng(7);
  const Graph g = erdos_renyi_gnm(40, 120, rng);
  std::stringstream ss;
  write_edge_list(g, ss);
  const Graph h = read_edge_list(ss, 40);
  EXPECT_EQ(h.num_vertices(), g.num_vertices());
  EXPECT_EQ(h.num_edges(), g.num_edges());
  EXPECT_EQ(h.edge_list(), g.edge_list());
}

TEST(IO, ParsesCommentsAndInfersSize) {
  std::stringstream ss("# a comment\n% another\n0 3\n1 2\n");
  const Graph g = read_edge_list(ss);
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(IO, BinaryRoundTrip) {
  Xoshiro256 rng(8);
  const Graph g = erdos_renyi_gnm(60, 200, rng);
  const std::string path = "/tmp/midas_test_graph.bin";
  save_binary(g, path);
  const Graph h = load_binary(path);
  EXPECT_EQ(h.num_vertices(), g.num_vertices());
  EXPECT_EQ(h.edge_list(), g.edge_list());
  // Corrupt magic must be rejected.
  {
    std::ofstream bad(path, std::ios::binary);
    bad << "NOTMIDAS garbage";
  }
  EXPECT_THROW((void)load_binary(path), std::invalid_argument);
  EXPECT_THROW((void)load_binary("/nonexistent/nope.bin"),
               std::runtime_error);
}

TEST(IO, RejectsMalformedLines) {
  std::stringstream ss("0 notanumber\n");
  EXPECT_THROW((void)read_edge_list(ss), std::invalid_argument);
}

TEST(IO, ParseErrorsCarrySourceAndLineNumber) {
  std::stringstream ss("# header\n0 1\n2 huh\n");
  try {
    (void)read_edge_list(ss, 0, "bad.txt");
    FAIL() << "expected GraphParseError";
  } catch (const GraphParseError& e) {
    EXPECT_EQ(e.line(), 3u);
    EXPECT_NE(std::string(e.what()).find("bad.txt:3"), std::string::npos);
  }
}

TEST(IO, RejectsNegativeAndOverflowingIds) {
  {
    std::stringstream ss("0 -3\n");
    EXPECT_THROW((void)read_edge_list(ss), GraphParseError);
  }
  {
    // 2^40 does not fit a 32-bit vertex id.
    std::stringstream ss("0 1099511627776\n");
    EXPECT_THROW((void)read_edge_list(ss), GraphParseError);
  }
  {
    // A number too large even for the parser's 64-bit staging.
    std::stringstream ss("0 999999999999999999999999999999\n");
    EXPECT_THROW((void)read_edge_list(ss), GraphParseError);
  }
}

TEST(IO, RejectsIdsOutsideDeclaredVertexCount) {
  std::stringstream ss("0 1\n1 7\n");
  try {
    (void)read_edge_list(ss, /*n_hint=*/4, "hinted.txt");
    FAIL() << "expected GraphParseError";
  } catch (const GraphParseError& e) {
    EXPECT_EQ(e.line(), 2u);
  }
}

TEST(IO, BinaryRejectsLyingHeadersAndTruncation) {
  Xoshiro256 rng(11);
  const Graph g = erdos_renyi_gnm(40, 120, rng);
  const std::string path = "/tmp/midas_test_graph_adv.bin";
  save_binary(g, path);

  const auto bytes = [&] {
    std::ifstream f(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(f), {});
  }();

  // Edge count far beyond what the file holds: must be rejected before any
  // allocation is attempted.
  {
    std::string lying = bytes;
    const std::uint64_t huge = 1ull << 60;
    std::memcpy(lying.data() + 16, &huge, sizeof(huge));
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << lying;
    f.close();
    EXPECT_THROW((void)load_binary(path), GraphParseError);
  }
  // Truncated mid-edge: typed error, not a silently smaller graph.
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << bytes.substr(0, bytes.size() - 3);
    f.close();
    EXPECT_THROW((void)load_binary(path), GraphParseError);
  }
  // Vertex id >= header n: typed error.
  {
    std::string oob = bytes;
    const std::uint64_t tiny_n = 2;
    std::memcpy(oob.data() + 8, &tiny_n, sizeof(tiny_n));
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << oob;
    f.close();
    EXPECT_THROW((void)load_binary(path), GraphParseError);
  }
}

}  // namespace
}  // namespace midas::graph
