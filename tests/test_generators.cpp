// Tests for the topology generators, including parameterized regularity
// sweeps across sizes and degrees.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "graph/degree_stats.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace saer {
namespace {

TEST(CompleteBipartite, AllPairsPresent) {
  const BipartiteGraph g = complete_bipartite(5, 7);
  EXPECT_EQ(g.num_edges(), 35u);
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(g.client_degree(v), 7u);
  for (NodeId u = 0; u < 7; ++u) EXPECT_EQ(g.server_degree(u), 5u);
  g.validate();
}

TEST(RingProximity, StructureAndRegularity) {
  const BipartiteGraph g = ring_proximity(10, 3);
  g.validate();
  for (NodeId v = 0; v < 10; ++v) EXPECT_EQ(g.client_degree(v), 3u);
  for (NodeId u = 0; u < 10; ++u) EXPECT_EQ(g.server_degree(u), 3u);
  EXPECT_TRUE(g.has_edge(0, 0));
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_FALSE(g.has_edge(0, 3));
  EXPECT_TRUE(g.has_edge(9, 9));
  EXPECT_TRUE(g.has_edge(9, 1));  // wraps around
}

TEST(RingProximity, FullRingEqualsComplete) {
  const BipartiteGraph ring = ring_proximity(4, 4);
  EXPECT_EQ(ring.num_edges(), 16u);
  for (NodeId v = 0; v < 4; ++v) EXPECT_EQ(ring.client_degree(v), 4u);
}

TEST(RingProximity, InvalidArgsThrow) {
  EXPECT_THROW(ring_proximity(4, 0), std::invalid_argument);
  EXPECT_THROW(ring_proximity(4, 5), std::invalid_argument);
}

TEST(GridProximity, DegreesAndWraparound) {
  const BipartiteGraph g = grid_proximity(5, 1);  // 25 nodes, degree 9
  g.validate();
  EXPECT_EQ(g.num_clients(), 25u);
  for (NodeId v = 0; v < 25; ++v) EXPECT_EQ(g.client_degree(v), 9u);
  for (NodeId u = 0; u < 25; ++u) EXPECT_EQ(g.server_degree(u), 9u);
  // Corner (0,0) reaches (4,4) via the torus.
  EXPECT_TRUE(g.has_edge(0, 24));
}

TEST(GridProximity, RadiusZeroIsMatching) {
  const BipartiteGraph g = grid_proximity(3, 0);
  EXPECT_EQ(g.num_edges(), 9u);
  for (NodeId v = 0; v < 9; ++v) {
    EXPECT_EQ(g.client_degree(v), 1u);
    EXPECT_TRUE(g.has_edge(v, v));
  }
}

TEST(GridProximity, TooWideWindowThrows) {
  EXPECT_THROW(grid_proximity(3, 2), std::invalid_argument);
}

TEST(RandomRegular, ExactRegularityBothSides) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const BipartiteGraph g = random_regular(64, 8, seed);
    g.validate();
    for (NodeId v = 0; v < 64; ++v) ASSERT_EQ(g.client_degree(v), 8u);
    for (NodeId u = 0; u < 64; ++u) ASSERT_EQ(g.server_degree(u), 8u);
  }
}

TEST(RandomRegular, SimpleGraphNoDuplicates) {
  const BipartiteGraph g = random_regular(32, 6, 99);
  for (NodeId v = 0; v < 32; ++v) {
    const auto nb = g.client_neighbors(v);
    const std::set<NodeId> unique(nb.begin(), nb.end());
    EXPECT_EQ(unique.size(), nb.size());
  }
}

TEST(RandomRegular, SeedChangesTopology) {
  const BipartiteGraph a = random_regular(64, 4, 1);
  const BipartiteGraph b = random_regular(64, 4, 2);
  EXPECT_NE(a, b);
  const BipartiteGraph a2 = random_regular(64, 4, 1);
  EXPECT_EQ(a, a2);
}

TEST(RandomRegular, DeltaEqualsNIsComplete) {
  const BipartiteGraph g = random_regular(8, 8, 5);
  EXPECT_EQ(g.num_edges(), 64u);
  g.validate();
}

TEST(RandomRegular, InvalidArgsThrow) {
  EXPECT_THROW(random_regular(8, 0, 1), std::invalid_argument);
  EXPECT_THROW(random_regular(8, 9, 1), std::invalid_argument);
}

TEST(ErdosRenyi, EdgeCountConcentrates) {
  const BipartiteGraph g = erdos_renyi_bipartite(200, 200, 0.1, 11);
  g.validate();
  const double expected = 200.0 * 200.0 * 0.1;
  EXPECT_NEAR(static_cast<double>(g.num_edges()), expected, 4 * std::sqrt(expected));
}

TEST(ErdosRenyi, ExtremeProbabilities) {
  EXPECT_EQ(erdos_renyi_bipartite(10, 10, 0.0, 1).num_edges(), 0u);
  EXPECT_EQ(erdos_renyi_bipartite(10, 10, 1.0, 1).num_edges(), 100u);
  EXPECT_THROW(erdos_renyi_bipartite(10, 10, -0.1, 1), std::invalid_argument);
  EXPECT_THROW(erdos_renyi_bipartite(10, 10, 1.1, 1), std::invalid_argument);
}

TEST(AlmostRegular, MixtureDegrees) {
  AlmostRegularParams p;
  p.base_delta = 8;
  p.heavy_delta = 32;
  p.heavy_fraction = 0.1;
  const BipartiteGraph g = almost_regular(100, p, 3);
  g.validate();
  int heavy = 0;
  for (NodeId v = 0; v < 100; ++v) {
    const auto deg = g.client_degree(v);
    EXPECT_TRUE(deg == 8 || deg == 32);
    heavy += deg == 32;
  }
  EXPECT_EQ(heavy, 10);
}

TEST(AlmostRegular, ZeroHeavyFractionIsUniform) {
  AlmostRegularParams p;
  p.base_delta = 5;
  const BipartiteGraph g = almost_regular(50, p, 4);
  for (NodeId v = 0; v < 50; ++v) EXPECT_EQ(g.client_degree(v), 5u);
}

TEST(AlmostRegular, InvalidParamsThrow) {
  AlmostRegularParams p;
  p.base_delta = 0;
  EXPECT_THROW(almost_regular(10, p, 1), std::invalid_argument);
  p.base_delta = 4;
  p.heavy_fraction = 1.5;
  EXPECT_THROW(almost_regular(10, p, 1), std::invalid_argument);
}

TEST(TrustGroups, EdgesStayInsideOneGroup) {
  const BipartiteGraph g = trust_groups(100, 10, 4, 7);
  g.validate();
  for (NodeId v = 0; v < 100; ++v) {
    const auto nb = g.client_neighbors(v);
    ASSERT_EQ(nb.size(), 10u);
    const NodeId group = nb.front() / 25;
    for (NodeId u : nb) EXPECT_EQ(u / 25, group);
  }
}

TEST(TrustGroups, InvalidParamsThrow) {
  EXPECT_THROW(trust_groups(100, 30, 4, 1), std::invalid_argument);  // delta > n/groups
  EXPECT_THROW(trust_groups(100, 10, 0, 1), std::invalid_argument);
}

TEST(PowerLawClients, MinDegreeRespected) {
  const BipartiteGraph g = power_law_clients(200, 4, 2.5, 13);
  g.validate();
  std::uint32_t max_deg = 0;
  for (NodeId v = 0; v < 200; ++v) {
    EXPECT_GE(g.client_degree(v), 4u);
    max_deg = std::max(max_deg, g.client_degree(v));
  }
  EXPECT_GT(max_deg, 4u);  // tail exists
}

TEST(PowerLawClients, InvalidParamsThrow) {
  EXPECT_THROW(power_law_clients(10, 0, 2.0, 1), std::invalid_argument);
  EXPECT_THROW(power_law_clients(10, 2, 1.0, 1), std::invalid_argument);
}

TEST(TheoremDegree, MatchesLogSquared) {
  EXPECT_EQ(theorem_degree(1024), 100u);          // log2(1024)^2 = 100
  EXPECT_EQ(theorem_degree(1024, 2.0), 200u);
  EXPECT_LE(theorem_degree(4), 4u);               // clamped at n
}

// ---- Pinned graph bytes ---------------------------------------------------

/// mix64 fold of every client row (its degree, then its servers in order)
/// and every server degree: any change to a generated graph moves it.
std::uint64_t graph_digest(const BipartiteGraph& g) {
  std::uint64_t h = mix64(g.num_clients(), g.num_servers());
  for (NodeId v = 0; v < g.num_clients(); ++v) {
    h = mix64(h, g.client_degree(v));
    for (const NodeId u : g.client_neighbors(v)) h = mix64(h, u);
  }
  for (NodeId u = 0; u < g.num_servers(); ++u) h = mix64(h, g.server_degree(u));
  return h;
}

TEST(GeneratorBytes, RandomRegularIsPinned) {
  // Odd delta and rows shorter than 16, rows longer than 16, a delta close
  // to n whose repair needs shake swaps, and the single matching.
  EXPECT_EQ(graph_digest(random_regular(4096, 16, 1)), 0xa15abe04faf34007ULL);
  EXPECT_EQ(graph_digest(random_regular(4096, 7, 2)), 0x0b955b48b20255a0ULL);
  EXPECT_EQ(graph_digest(random_regular(2048, 24, 3)), 0x9a67ba4f1c83d225ULL);
  EXPECT_EQ(graph_digest(random_regular(64, 40, 4)), 0xfe42760012b233e7ULL);
  EXPECT_EQ(graph_digest(random_regular(1000, 1, 5)), 0x551f2daff0bd1d05ULL);
}

TEST(GeneratorBytes, ProximityAndBlocksArePinned) {
  EXPECT_EQ(graph_digest(ring_proximity(1000, 37)), 0xeb1f1b14fe163d37ULL);
  EXPECT_EQ(graph_digest(shared_blocks(1024, 16)), 0xefe72abe6f44d4aaULL);
  EXPECT_EQ(graph_digest(grid_proximity(64, 3)), 0xb3ac80b67e71c524ULL);
}

// ---- Parameterized regularity sweep -------------------------------------

struct RegularCase {
  NodeId n;
  std::uint32_t delta;
};

class RandomRegularSweep : public ::testing::TestWithParam<RegularCase> {};

TEST_P(RandomRegularSweep, RegularSimpleValid) {
  const auto [n, delta] = GetParam();
  const BipartiteGraph g = random_regular(n, delta, 0xabc + n + delta);
  g.validate();
  const DegreeStats s = degree_stats(g);
  EXPECT_EQ(s.client_min, delta);
  EXPECT_EQ(s.client_max, delta);
  EXPECT_EQ(s.server_min, delta);
  EXPECT_EQ(s.server_max, delta);
  EXPECT_DOUBLE_EQ(s.rho, 1.0);
  // The rows handed straight to from_client_rows are the graph the edge
  // list path builds.
  EXPECT_EQ(BipartiteGraph::from_edges(n, n, g.edges()), g);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, RandomRegularSweep,
    ::testing::Values(RegularCase{16, 2}, RegularCase{64, 5},
                      RegularCase{128, 16}, RegularCase{256, 25},
                      RegularCase{512, 49}, RegularCase{1024, 100}),
    [](const ::testing::TestParamInfo<RegularCase>& info) {
      return "n" + std::to_string(info.param.n) + "_d" +
             std::to_string(info.param.delta);
    });

}  // namespace
}  // namespace saer
