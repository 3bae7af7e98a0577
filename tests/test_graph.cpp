// Tests for graph/bipartite_graph.hpp and graph/degree_stats.hpp.

#include <gtest/gtest.h>

#include <cmath>

#include "graph/bipartite_graph.hpp"
#include "graph/degree_stats.hpp"

namespace saer {
namespace {

BipartiteGraph small_graph() {
  // 3 clients, 4 servers.
  return BipartiteGraph::from_edges(
      3, 4, {{0, 0}, {0, 1}, {1, 1}, {1, 2}, {1, 3}, {2, 3}});
}

TEST(BipartiteGraph, BasicShape) {
  const BipartiteGraph g = small_graph();
  EXPECT_EQ(g.num_clients(), 3u);
  EXPECT_EQ(g.num_servers(), 4u);
  EXPECT_EQ(g.num_edges(), 6u);
}

TEST(BipartiteGraph, ClientAdjacencySorted) {
  const BipartiteGraph g = small_graph();
  const auto nb = g.client_neighbors(1);
  ASSERT_EQ(nb.size(), 3u);
  EXPECT_EQ(nb[0], 1u);
  EXPECT_EQ(nb[1], 2u);
  EXPECT_EQ(nb[2], 3u);
  EXPECT_EQ(g.client_degree(1), 3u);
  EXPECT_EQ(g.client_neighbor(1, 2), 3u);
}

TEST(BipartiteGraph, ServerOrientationAgrees) {
  const BipartiteGraph g = small_graph();
  EXPECT_EQ(g.server_degree(1), 2u);
  EXPECT_EQ(g.server_degree(3), 2u);
  EXPECT_EQ(g.server_degree(0), 1u);
}

TEST(BipartiteGraph, HasEdge) {
  const BipartiteGraph g = small_graph();
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(0, 3));
  EXPECT_FALSE(g.has_edge(99, 0));
  EXPECT_FALSE(g.has_edge(0, 99));
}

TEST(BipartiteGraph, EdgesRoundTrip) {
  const BipartiteGraph g = small_graph();
  const auto edges = g.edges();
  const BipartiteGraph g2 = BipartiteGraph::from_edges(3, 4, edges);
  EXPECT_EQ(g, g2);
}

TEST(BipartiteGraph, OutOfRangeIdsRejected) {
  EXPECT_THROW(BipartiteGraph::from_edges(2, 2, {{2, 0}}), std::invalid_argument);
  EXPECT_THROW(BipartiteGraph::from_edges(2, 2, {{0, 2}}), std::invalid_argument);
}

TEST(BipartiteGraph, DuplicateEdgeRejected) {
  EXPECT_THROW(BipartiteGraph::from_edges(2, 2, {{0, 0}, {0, 0}}),
               std::invalid_argument);
}

TEST(BipartiteGraph, DuplicateEdgeAllowedWhenRequested) {
  const BipartiteGraph g =
      BipartiteGraph::from_edges(2, 2, {{0, 0}, {0, 0}}, true);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.client_degree(0), 2u);
}

TEST(BipartiteGraph, FromClientRowsSortsEachRow) {
  const BipartiteGraph g = BipartiteGraph::from_client_rows(
      3, 4, {0, 2, 5, 6}, {1, 0, 3, 1, 2, 3});
  const auto nb = g.client_neighbors(1);
  ASSERT_EQ(nb.size(), 3u);
  EXPECT_EQ(nb[0], 1u);
  EXPECT_EQ(nb[1], 2u);
  EXPECT_EQ(nb[2], 3u);
  EXPECT_EQ(g.server_degree(3), 2u);
  EXPECT_NO_THROW(g.validate());
}

TEST(BipartiteGraph, FromClientRowsEqualsFromEdges) {
  const BipartiteGraph g = small_graph();
  EXPECT_EQ(BipartiteGraph::from_client_rows(3, 4, {0, 2, 5, 6},
                                             {1, 0, 3, 2, 1, 3}),
            g);
  EXPECT_EQ(BipartiteGraph::from_edges(
                3, 4, {{2, 3}, {1, 3}, {0, 1}, {1, 1}, {0, 0}, {1, 2}}),
            g);
}

TEST(BipartiteGraph, FromClientRowsRejectsBadInput) {
  // Server id out of range, and a duplicate within one row.
  EXPECT_THROW(BipartiteGraph::from_client_rows(2, 2, {0, 1, 2}, {0, 2}),
               std::invalid_argument);
  EXPECT_THROW(BipartiteGraph::from_client_rows(2, 2, {0, 2, 2}, {1, 1}),
               std::invalid_argument);
  // Offsets: wrong size, not starting at 0, not ending at adj.size(), and
  // not monotone.
  EXPECT_THROW(BipartiteGraph::from_client_rows(2, 2, {0, 2}, {0, 1}),
               std::invalid_argument);
  EXPECT_THROW(BipartiteGraph::from_client_rows(2, 2, {1, 1, 2}, {0, 1}),
               std::invalid_argument);
  EXPECT_THROW(BipartiteGraph::from_client_rows(2, 2, {0, 1, 1}, {0, 1}),
               std::invalid_argument);
  EXPECT_THROW(BipartiteGraph::from_client_rows(2, 2, {0, 2, 1}, {0, 1}),
               std::invalid_argument);
}

TEST(BipartiteGraph, FromClientRowsKeepsMultiEdgesWhenAllowed) {
  const BipartiteGraph g =
      BipartiteGraph::from_client_rows(2, 2, {0, 3, 3}, {1, 0, 1}, true);
  EXPECT_EQ(g.client_degree(0), 3u);
  EXPECT_EQ(g.server_degree(1), 2u);
  EXPECT_EQ(g,
            BipartiteGraph::from_edges(2, 2, {{0, 1}, {0, 0}, {0, 1}}, true));
}

TEST(BipartiteGraph, EmptyGraphIsValid) {
  const BipartiteGraph g = BipartiteGraph::from_edges(0, 0, {});
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_NO_THROW(g.validate());
}

TEST(BipartiteGraph, IsolatedNodesAllowed) {
  const BipartiteGraph g = BipartiteGraph::from_edges(3, 3, {{0, 0}});
  EXPECT_EQ(g.client_degree(1), 0u);
  EXPECT_EQ(g.server_degree(2), 0u);
  EXPECT_NO_THROW(g.validate());
}

TEST(BipartiteGraph, ValidatePassesOnWellFormed) {
  EXPECT_NO_THROW(small_graph().validate());
}

TEST(DegreeStats, ComputesExtremesAndRho) {
  const BipartiteGraph g = small_graph();
  const DegreeStats s = degree_stats(g);
  EXPECT_EQ(s.client_min, 1u);
  EXPECT_EQ(s.client_max, 3u);
  EXPECT_EQ(s.server_min, 1u);
  EXPECT_EQ(s.server_max, 2u);
  EXPECT_DOUBLE_EQ(s.rho, 2.0);
  EXPECT_DOUBLE_EQ(s.client_mean, 2.0);
  EXPECT_DOUBLE_EQ(s.server_mean, 1.5);
}

TEST(DegreeStats, IsolatedClientGivesInfiniteRho) {
  const BipartiteGraph g = BipartiteGraph::from_edges(2, 2, {{0, 0}});
  const DegreeStats s = degree_stats(g);
  EXPECT_TRUE(std::isinf(s.rho));
}

TEST(DegreeStats, Theorem1Check) {
  // n = 16: log2(n)^2 = 16, so a 16-regular complete-ish graph qualifies
  // with eta = 1 and any rho >= 1.
  std::vector<Edge> edges;
  for (NodeId v = 0; v < 16; ++v)
    for (NodeId u = 0; u < 16; ++u) edges.push_back({v, u});
  const BipartiteGraph g = BipartiteGraph::from_edges(16, 16, edges);
  EXPECT_TRUE(satisfies_theorem1(g, 1.0, 1.0));
  EXPECT_FALSE(satisfies_theorem1(g, 2.0, 1.0));
}

TEST(DegreeStats, DescribeMentionsCounts) {
  const std::string text = describe(small_graph());
  EXPECT_NE(text.find("3 clients"), std::string::npos);
  EXPECT_NE(text.find("4 servers"), std::string::npos);
  EXPECT_NE(text.find("6 edges"), std::string::npos);
}

}  // namespace
}  // namespace saer
