// Tests for edge-list serialization.
#include "graph/io.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "graph/builder.hpp"

namespace {

using sfs::graph::from_string;
using sfs::graph::Graph;
using sfs::graph::GraphBuilder;
using sfs::graph::read_edge_list;
using sfs::graph::to_string;

Graph sample() {
  GraphBuilder b(4);
  b.add_edge(1, 0);
  b.add_edge(2, 0);
  b.add_edge(3, 1);
  b.add_edge(3, 3);  // loop survives round-trip
  return b.build();
}

TEST(Io, RoundTripPreservesEverything) {
  const Graph g = sample();
  const Graph h = from_string(to_string(g));
  ASSERT_EQ(h.num_vertices(), g.num_vertices());
  ASSERT_EQ(h.num_edges(), g.num_edges());
  for (sfs::graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(h.edge(e).tail, g.edge(e).tail);
    EXPECT_EQ(h.edge(e).head, g.edge(e).head);
  }
}

TEST(Io, FormatIsStable) {
  const std::string text = to_string(sample());
  EXPECT_EQ(text,
            "sfsearch-graph v1\n"
            "4 4\n"
            "1 0\n"
            "2 0\n"
            "3 1\n"
            "3 3\n");
}

TEST(Io, CommentsAndBlankLinesIgnored) {
  const std::string text =
      "# leading comment\n"
      "sfsearch-graph v1\n"
      "\n"
      "2 1   # header trailing comment\n"
      "  0 1  \n";
  const Graph g = from_string(text);
  EXPECT_EQ(g.num_vertices(), 2u);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(Io, RejectsBadMagic) {
  EXPECT_THROW((void)from_string("bogus v9\n1 0\n"), std::invalid_argument);
}

TEST(Io, RejectsTruncatedEdgeList) {
  EXPECT_THROW((void)from_string("sfsearch-graph v1\n2 2\n0 1\n"),
               std::invalid_argument);
  // A header claiming ~4e9 edges (a valid EdgeId count) over one row:
  // truncated, without first reserving for the claimed count.
  EXPECT_THROW((void)from_string("sfsearch-graph v1\n2 4000000000\n0 1\n"),
               std::invalid_argument);
}

TEST(Io, RejectsOutOfRangeEndpoint) {
  EXPECT_THROW((void)from_string("sfsearch-graph v1\n2 1\n0 2\n"),
               std::invalid_argument);
}

TEST(Io, RejectsMalformedHeader) {
  EXPECT_THROW((void)from_string("sfsearch-graph v1\nnot numbers\n"),
               std::invalid_argument);
  // An edge count beyond EdgeId.
  EXPECT_THROW(
      (void)from_string("sfsearch-graph v1\n2 18446744073709551615\n0 1\n"),
      std::invalid_argument);
  // A vertex count beyond VertexId (GraphBuilder rejects n > kNoVertex
  // before sizing anything); "-1" wraps to 2^64 - 1 when read unsigned.
  for (const char* header :
       {"4294967296 0", "18446744073709551615 0", "-1 0"}) {
    EXPECT_THROW(
        (void)from_string(std::string("sfsearch-graph v1\n") + header + "\n"),
        std::invalid_argument)
        << header;
  }
}

TEST(Io, RejectsEmptyInput) {
  EXPECT_THROW((void)from_string(""), std::invalid_argument);
}

TEST(Io, EmptyGraphRoundTrips) {
  const Graph g = GraphBuilder(0).build();
  const Graph h = from_string(to_string(g));
  EXPECT_EQ(h.num_vertices(), 0u);
  EXPECT_EQ(h.num_edges(), 0u);
}

TEST(Io, FileSaveLoad) {
  const Graph g = sample();
  const std::string path = testing::TempDir() + "/sfs_io_test.graph";
  sfs::graph::save(path, g);
  const Graph h = sfs::graph::load(path);
  EXPECT_EQ(h.num_edges(), g.num_edges());
  EXPECT_EQ(h.num_vertices(), g.num_vertices());
}

TEST(Io, LoadMissingFileThrows) {
  EXPECT_THROW((void)sfs::graph::load("/nonexistent/dir/x.graph"),
               std::runtime_error);
}

}  // namespace
