// Tests for graph/bipartite_graph.hpp and graph/degree_stats.hpp.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>

#include "graph/bipartite_graph.hpp"
#include "graph/degree_stats.hpp"
#include "util/rng.hpp"

namespace saer {
namespace {

/// One client whose row is `row`.
BipartiteGraph one_row(NodeId num_servers, std::vector<NodeId> row) {
  const EdgeId len = row.size();
  return BipartiteGraph::from_client_rows(1, num_servers, {0, len},
                                          std::move(row));
}

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
  // The id checks again, on rows the 16-key network sorts (5 to 16 ids)
  // and on longer ones: a descending row, then one id out of range, then
  // one repeated.
  for (const NodeId len : {5u, 16u, 17u, 40u}) {
    std::vector<NodeId> row(len);
    std::iota(row.rbegin(), row.rend(), NodeId{0});
    EXPECT_NO_THROW(one_row(len, row)) << len;
    row[len / 2] = len;
    EXPECT_THROW(one_row(len, row), std::invalid_argument) << len;
    row[len / 2] = 0;
    EXPECT_THROW(one_row(len, row), std::invalid_argument) << len;
  }
}

TEST(BipartiteGraph, SortNetworkSortsEveryZeroOneRow) {
  // Rows of 16 ids go through the 16-key sorting network.  By the 0-1
  // principle, a network that sorts all 2^16 rows of 0s and 1s sorts
  // every row, and so every shorter row padded with the largest id.
  constexpr NodeId kRows = NodeId{1} << 16;
  std::vector<EdgeId> offsets(std::size_t{kRows} + 1);
  std::vector<NodeId> adj(std::size_t{kRows} * 16);
  for (NodeId x = 0; x < kRows; ++x) {
    offsets[x + 1] = offsets[x] + 16;
    for (NodeId b = 0; b < 16; ++b) adj[offsets[x] + b] = (x >> b) & 1;
  }
  const BipartiteGraph g = BipartiteGraph::from_client_rows(
      kRows, 2, std::move(offsets), std::move(adj), true);
  for (NodeId x = 0; x < kRows; ++x) {
    const auto row = g.client_neighbors(x);
    ASSERT_TRUE(std::is_sorted(row.begin(), row.end())) << x;
    ASSERT_EQ(std::count(row.begin(), row.end(), 1u), std::popcount(x)) << x;
  }
}

TEST(BipartiteGraph, FromClientRowsSortsLikeStdSortAtEveryLength) {
  // Rows of 0 to 40 ids span std::sort's short rows, the network's 5 to 16
  // and std::sort's long rows; ids repeat and reach num_servers - 1.
  constexpr NodeId kServers = 23;
  Xoshiro256ss rng(17);
  std::vector<EdgeId> offsets{0};
  std::vector<NodeId> adj;
  for (int rep = 0; rep < 50; ++rep) {
    for (EdgeId len = 0; len <= 40; ++len) {
      for (EdgeId k = 0; k < len; ++k)
        adj.push_back(k == 0 ? kServers - 1
                             : static_cast<NodeId>(rng.bounded(kServers)));
      offsets.push_back(adj.size());
    }
  }
  const auto clients = static_cast<NodeId>(offsets.size() - 1);
  const BipartiteGraph g =
      BipartiteGraph::from_client_rows(clients, kServers, offsets, adj, true);
  for (NodeId v = 0; v < clients; ++v) {
    std::vector<NodeId> want(adj.begin() + static_cast<std::ptrdiff_t>(offsets[v]),
                             adj.begin() + static_cast<std::ptrdiff_t>(offsets[v + 1]));
    std::sort(want.begin(), want.end());
    const auto got = g.client_neighbors(v);
    ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << "client " << v << ", row of " << want.size();
  }
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
