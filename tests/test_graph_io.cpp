// Tests for graph/graph_io.hpp.

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>

#include "graph/generators.hpp"
#include "graph/graph_io.hpp"

namespace saer {
namespace {

TEST(GraphIo, StreamRoundTrip) {
  const BipartiteGraph g = ring_proximity(12, 4);
  std::stringstream buffer;
  write_graph(buffer, g);
  const BipartiteGraph g2 = read_graph(buffer);
  EXPECT_EQ(g, g2);
}

TEST(GraphIo, FileRoundTrip) {
  const BipartiteGraph g = random_regular(32, 4, 5);
  const auto path = std::filesystem::temp_directory_path() / "saer_graph_test.txt";
  save_graph(path.string(), g);
  const BipartiteGraph g2 = load_graph(path.string());
  EXPECT_EQ(g, g2);
  std::filesystem::remove(path);
}

TEST(GraphIo, CommentsSkipped) {
  std::stringstream in(
      "# a comment\nsaer-bipartite 1\n# another\n2 2 2\n0 0\n# mid\n1 1\n");
  const BipartiteGraph g = read_graph(in);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.has_edge(0, 0));
  EXPECT_TRUE(g.has_edge(1, 1));
}

TEST(GraphIo, BadHeaderRejected) {
  std::stringstream in("wrong-magic 1\n1 1 0\n");
  EXPECT_THROW(read_graph(in), std::runtime_error);
}

TEST(GraphIo, BadVersionRejected) {
  std::stringstream in("saer-bipartite 99\n1 1 0\n");
  EXPECT_THROW(read_graph(in), std::runtime_error);
}

TEST(GraphIo, TruncatedEdgesRejected) {
  std::stringstream in("saer-bipartite 1\n2 2 3\n0 0\n");
  EXPECT_THROW(read_graph(in), std::runtime_error);
}

/// read_graph's error message for `text` (empty when it parses).
std::string read_error(const std::string& text) {
  std::stringstream in(text);
  try {
    (void)read_graph(in);
  } catch (const std::runtime_error& err) {
    return err.what();
  }
  return "";
}

TEST(GraphIo, IdsBeyondTheDeclaredRangeRejected) {
  // 2^32 + 1 would truncate to client 1 if it were cast before the check.
  EXPECT_EQ(read_error("saer-bipartite 1\n2 2 1\n4294967297 1\n"),
            "read_graph: line 3: client id 4294967297 not below 2");
  EXPECT_EQ(read_error("saer-bipartite 1\n2 2 2\n0 0\n# c\n1 2\n"),
            "read_graph: line 5: server id 2 not below 2");
  EXPECT_EQ(read_error("saer-bipartite 1\n4294967296 2 0\n"),
            "read_graph: line 2: client or server count above 4294967295");
}

TEST(GraphIo, HugeEdgeCountIsNotAnAllocation) {
  // The header promises far more edges than the input holds: the reader
  // reports the missing line instead of reserving 99999999999999 edges.
  EXPECT_EQ(read_error("saer-bipartite 1\n2 2 99999999999999\n0 0\n"),
            "read_graph: unexpected end of input after line 3");
}

TEST(GraphIo, MissingFileThrows) {
  EXPECT_THROW(load_graph("/nonexistent/saer.txt"), std::runtime_error);
}

TEST(GraphIo, EmptyGraphRoundTrip) {
  const BipartiteGraph g = BipartiteGraph::from_edges(3, 3, {});
  std::stringstream buffer;
  write_graph(buffer, g);
  const BipartiteGraph g2 = read_graph(buffer);
  EXPECT_EQ(g, g2);
  EXPECT_EQ(g2.num_clients(), 3u);
}

}  // namespace
}  // namespace saer
