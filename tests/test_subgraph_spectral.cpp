// Tests for the expander-extraction application and the spectral estimator.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "core/engine.hpp"
#include "core/subgraph.hpp"
#include "graph/generators.hpp"
#include "graph/spectral.hpp"

namespace saer {
namespace {

TEST(Spectral, CompleteBipartiteHasFullGap) {
  // Projection walk on K_{n,n} jumps to a uniform client: lambda2 = 0.
  const BipartiteGraph g = complete_bipartite(32, 32);
  const SpectralEstimate est = estimate_lambda2(g);
  EXPECT_TRUE(est.converged);
  EXPECT_NEAR(est.lambda2, 0.0, 1e-6);
  EXPECT_NEAR(est.gap(), 1.0, 1e-6);
}

TEST(Spectral, PerfectMatchingHasNoGap) {
  // grid radius 0 = perfect matching: every client is its own component.
  const BipartiteGraph g = grid_proximity(6, 0);
  const SpectralEstimate est = estimate_lambda2(g);
  EXPECT_NEAR(est.lambda2, 1.0, 1e-6);
  EXPECT_NEAR(est.gap(), 0.0, 1e-6);
}

TEST(Spectral, RingIsSlowMixing) {
  // Narrow ring neighborhoods mix slowly: lambda2 close to 1 but < 1.
  const BipartiteGraph g = ring_proximity(256, 4);
  const SpectralEstimate est = estimate_lambda2(g, 2000, 1e-9);
  EXPECT_GT(est.lambda2, 0.9);
  EXPECT_LT(est.lambda2, 1.0 + 1e-9);
}

TEST(Spectral, RandomRegularIsExpander) {
  // lambda2 of the projection walk ~ (2 sqrt(D-1)/D)^2 for random D-regular.
  const std::uint32_t delta = 64;
  const BipartiteGraph g = random_regular(1024, delta, 5);
  const SpectralEstimate est = estimate_lambda2(g, 500);
  const double rd = 2.0 * std::sqrt(static_cast<double>(delta - 1)) / delta;
  EXPECT_LT(est.lambda2, 3.0 * rd * rd);  // generous constant
  EXPECT_GT(est.gap(), 0.8);
}

TEST(Spectral, EmptyAndEdgelessGraphs) {
  const BipartiteGraph empty = BipartiteGraph::from_edges(0, 0, {});
  EXPECT_EQ(estimate_lambda2(empty).lambda2, 1.0);
  const BipartiteGraph edgeless = BipartiteGraph::from_edges(4, 4, {});
  EXPECT_EQ(estimate_lambda2(edgeless).lambda2, 1.0);
}

TEST(Spectral, DeterministicForSeed) {
  const BipartiteGraph g = random_regular(256, 16, 9);
  const SpectralEstimate a = estimate_lambda2(g, 300, 1e-9, 3);
  const SpectralEstimate b = estimate_lambda2(g, 300, 1e-9, 3);
  EXPECT_DOUBLE_EQ(a.lambda2, b.lambda2);
}

RunResult completed_run(const BipartiteGraph& g, std::uint32_t d, double c) {
  ProtocolParams params;
  params.d = d;
  params.c = c;
  params.seed = 11;
  RunResult res = run_protocol(g, params);
  EXPECT_TRUE(res.completed);
  return res;
}

void expect_pinned(const SpectralEstimate& est, std::uint64_t lambda2_bits,
                   std::uint32_t iterations, bool converged) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(est.lambda2), lambda2_bits)
      << "lambda2 = " << est.lambda2;
  EXPECT_EQ(est.iterations, iterations);
  EXPECT_EQ(est.converged, converged);
}

TEST(Spectral, EstimatesArePinnedBitForBit) {
  // The power iteration adds the same doubles in the same order whatever
  // the graph's storage layout, so these bits only move if the operator or
  // the graphs do.
  expect_pinned(estimate_lambda2(random_regular(1024, 64, 5), 500),
                0x3faddcf2e2ab3b0dULL, 132, true);
  expect_pinned(estimate_lambda2(ring_proximity(256, 4), 2000, 1e-9),
                0x3feff9d4dc621a69ULL, 1937, true);
  const BipartiteGraph g = random_regular(512, theorem_degree(512), 21);
  const BipartiteGraph sub = assignment_subgraph(g, completed_run(g, 4, 3.0));
  expect_pinned(estimate_lambda2(sub), 0x3fe82ed823fce513ULL, 186, true);
}

TEST(Subgraph, DegreesBoundedByConstruction) {
  const BipartiteGraph g = random_regular(512, theorem_degree(512), 21);
  const std::uint32_t d = 4;
  const double c = 3.0;
  const RunResult res = completed_run(g, d, c);
  const BipartiteGraph sub = assignment_subgraph(g, res);
  sub.validate();
  const SubgraphStats stats = subgraph_stats(g, sub);
  EXPECT_LE(stats.client_degree_max, d);
  EXPECT_LE(stats.server_degree_max, static_cast<std::uint32_t>(c * d));
  EXPECT_GT(stats.edge_fraction, 0.0);
  EXPECT_LT(stats.edge_fraction, 1.0);
}

TEST(Subgraph, EdgesComeFromOriginalGraph) {
  const BipartiteGraph g = ring_proximity(128, 16);
  const RunResult res = completed_run(g, 2, 4.0);
  const BipartiteGraph sub = assignment_subgraph(g, res);
  for (const Edge& e : sub.edges()) EXPECT_TRUE(g.has_edge(e.client, e.server));
}

TEST(Subgraph, EveryClientRetainsAtLeastOneEdge) {
  const BipartiteGraph g = random_regular(128, 16, 23);
  const RunResult res = completed_run(g, 3, 4.0);
  const BipartiteGraph sub = assignment_subgraph(g, res);
  for (NodeId v = 0; v < sub.num_clients(); ++v)
    EXPECT_GE(sub.client_degree(v), 1u);
}

TEST(Subgraph, IncompleteRunRejected) {
  const BipartiteGraph g = complete_bipartite(4, 4);
  ProtocolParams params;
  params.d = 2;
  params.c = 0.5;  // infeasible
  params.max_rounds = 20;
  const RunResult res = run_protocol(g, params);
  ASSERT_FALSE(res.completed);
  EXPECT_THROW(assignment_subgraph(g, res), std::invalid_argument);
}

TEST(Subgraph, ExpansionGrowsWithD) {
  // The headline qualitative claim of the expander application: larger
  // request number d yields a better-connected extracted subgraph.
  const BipartiteGraph g = random_regular(1024, theorem_degree(1024), 29);
  const RunResult small = completed_run(g, 2, 3.0);
  const RunResult large = completed_run(g, 8, 3.0);
  const double gap_small =
      estimate_lambda2(assignment_subgraph(g, small)).gap();
  const double gap_large =
      estimate_lambda2(assignment_subgraph(g, large)).gap();
  EXPECT_GT(gap_large, gap_small + 0.05);
  EXPECT_GT(gap_large, 0.3);
}

}  // namespace
}  // namespace saer
