// Tests for the immutable multigraph and its builder.
#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "graph/builder.hpp"
#include "graph/compressed.hpp"

namespace {

using sfs::graph::Edge;
using sfs::graph::Graph;
using sfs::graph::GraphBuilder;
using sfs::graph::kNoVertex;
using sfs::graph::VertexId;

Graph triangle() {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 0);
  return b.build();
}

TEST(GraphBuilder, EmptyGraph) {
  GraphBuilder b;
  const Graph g = b.build();
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(GraphBuilder, AddVertexReturnsSequentialIds) {
  GraphBuilder b;
  EXPECT_EQ(b.add_vertex(), 0u);
  EXPECT_EQ(b.add_vertex(), 1u);
  EXPECT_EQ(b.add_vertices(3), 2u);
  EXPECT_EQ(b.num_vertices(), 5u);
}

TEST(GraphBuilder, RejectsDanglingEdge) {
  GraphBuilder b(2);
  EXPECT_THROW(b.add_edge(0, 2), std::invalid_argument);
  EXPECT_THROW(b.add_edge(2, 0), std::invalid_argument);
}

TEST(Graph, TriangleBasics) {
  const Graph g = triangle();
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  for (VertexId v = 0; v < 3; ++v) EXPECT_EQ(g.degree(v), 2u);
}

TEST(Graph, EdgeRecordsKeepOrientation) {
  const Graph g = triangle();
  EXPECT_EQ(g.edge(0), (Edge{0, 1}));
  EXPECT_EQ(g.edge(1), (Edge{1, 2}));
  EXPECT_EQ(g.edge(2), (Edge{2, 0}));
}

TEST(Graph, InOutDegrees) {
  const Graph g = triangle();
  for (VertexId v = 0; v < 3; ++v) {
    EXPECT_EQ(g.in_degree(v), 1u);
    EXPECT_EQ(g.out_degree(v), 1u);
  }
}

TEST(Graph, OtherEndpoint) {
  const Graph g = triangle();
  EXPECT_EQ(g.other_endpoint(0, 0), 1u);
  EXPECT_EQ(g.other_endpoint(0, 1), 0u);
  EXPECT_THROW((void)g.other_endpoint(0, 2), std::invalid_argument);
}

TEST(Graph, SelfLoopCountsTwiceInDegree) {
  GraphBuilder b(1);
  b.add_edge(0, 0);
  const Graph g = b.build();
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.in_degree(0), 1u);
  EXPECT_EQ(g.out_degree(0), 1u);
  EXPECT_EQ(g.other_endpoint(0, 0), 0u);
  EXPECT_TRUE(g.edge(0).is_loop());
}

TEST(Graph, SelfLoopAppearsTwiceInIncidence) {
  GraphBuilder b(1);
  b.add_edge(0, 0);
  const Graph g = b.build();
  const auto inc = g.incident(0);
  ASSERT_EQ(inc.size(), 2u);
  EXPECT_EQ(inc[0], 0u);
  EXPECT_EQ(inc[1], 0u);
}

TEST(Graph, ParallelEdgesAllowed) {
  GraphBuilder b(2);
  b.add_edge(0, 1);
  b.add_edge(0, 1);
  b.add_edge(1, 0);
  const Graph g = b.build();
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.degree(0), 3u);
  EXPECT_EQ(g.degree(1), 3u);
}

TEST(Graph, NeighborsMultiset) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(0, 1);
  b.add_edge(0, 0);
  b.add_edge(2, 0);
  const Graph g = b.build();
  auto nb = g.neighbors(0);
  std::sort(nb.begin(), nb.end());
  // Self-loop contributes 0 twice, two parallel edges to 1, one edge to 2.
  const std::vector<VertexId> expected{0, 0, 1, 1, 2};
  EXPECT_EQ(nb, expected);
}

TEST(Graph, HasEdge) {
  const Graph g = triangle();
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  GraphBuilder b(3);
  b.add_edge(0, 1);
  const Graph h = b.build();
  EXPECT_FALSE(h.has_edge(0, 2));
  EXPECT_FALSE(h.has_edge(1, 2));
}

TEST(Graph, IncidentOrderIsByInsertion) {
  GraphBuilder b(3);
  b.add_edge(0, 1);  // edge 0
  b.add_edge(2, 0);  // edge 1
  b.add_edge(0, 2);  // edge 2
  const Graph g = b.build();
  const auto inc = g.incident(0);
  ASSERT_EQ(inc.size(), 3u);
  EXPECT_EQ(inc[0], 0u);
  EXPECT_EQ(inc[1], 1u);
  EXPECT_EQ(inc[2], 2u);
}

TEST(Graph, RangeChecks) {
  const Graph g = triangle();
  EXPECT_THROW((void)g.degree(3), std::invalid_argument);
  EXPECT_THROW((void)g.incident(3), std::invalid_argument);
  EXPECT_THROW((void)g.edge(3), std::invalid_argument);
  EXPECT_THROW((void)g.in_degree(5), std::invalid_argument);
}

TEST(Graph, IsolatedVerticesHaveZeroDegree) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  const Graph g = b.build();
  EXPECT_EQ(g.degree(2), 0u);
  EXPECT_EQ(g.degree(3), 0u);
  EXPECT_TRUE(g.incident(2).empty());
}

TEST(Graph, HandshakeLemma) {
  GraphBuilder b(5);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 2);
  b.add_edge(3, 4);
  b.add_edge(4, 3);
  const Graph g = b.build();
  std::size_t total = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) total += g.degree(v);
  EXPECT_EQ(total, 2 * g.num_edges());
}

TEST(Graph, BuilderIsReusableAfterBuild) {
  GraphBuilder b(2);
  b.add_edge(0, 1);
  const Graph g1 = b.build();
  EXPECT_EQ(g1.num_edges(), 1u);
  EXPECT_EQ(b.num_vertices(), 0u);
  EXPECT_EQ(b.num_edges(), 0u);
}

TEST(GraphBuilder, ValidateEdgeCapacity) {
  using sfs::graph::kNoEdge;
  using sfs::graph::validate_edge_capacity;
  // In-range counts pass, including the largest representable one
  // (add_edge allows ids up to kNoEdge - 1, i.e. kNoEdge edges total).
  EXPECT_NO_THROW(validate_edge_capacity(0));
  EXPECT_NO_THROW(validate_edge_capacity(1000000));
  EXPECT_NO_THROW(validate_edge_capacity(static_cast<std::size_t>(kNoEdge)));
  // One past the EdgeId range — what a high-degree model at n >= 10^6
  // could request — must be rejected before any CSR array is sized.
  EXPECT_THROW(validate_edge_capacity(static_cast<std::size_t>(kNoEdge) + 1),
               std::invalid_argument);
  // And a count whose 2m incidence slot total would wrap size_t.
  EXPECT_THROW(
      validate_edge_capacity(std::numeric_limits<std::size_t>::max() / 2 + 1),
      std::invalid_argument);
}

TEST(GraphMemory, CountsEveryResidentArray) {
  using sfs::graph::EdgeId;
  using sfs::graph::graph_memory_bytes;
  EXPECT_EQ(graph_memory_bytes(Graph{}), 0u);
  // n = 3, m = 3: edge log, n + 1 offsets, 2m incidence ids, 2m far
  // endpoints and two n-long degree vectors.
  EXPECT_EQ(graph_memory_bytes(triangle()),
            3 * sizeof(Edge) + 4 * sizeof(std::size_t) + 6 * sizeof(EdgeId) +
                6 * sizeof(VertexId) + 6 * sizeof(std::uint32_t));
}

}  // namespace
