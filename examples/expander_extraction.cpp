// Expander extraction: the application that motivated RAES (Section 1.1,
// footnote 5).  Start from a dense-ish communication graph, run the
// protocol once with a constant request number d, and keep only the
// accepted edges: the result is a bounded-degree subgraph (client degree d,
// server degree <= c*d) that inherits the expansion of the host graph.
// Useful when a system needs a sparse overlay with guaranteed conductance
// -- gossip substrates, sparsified storage overlays, etc.
//
//   ./examples/expander_extraction [--n 4096] [--d 6] [--c 3] [--seed 2]

#include <cstdio>
#include <stdexcept>

#include "core/engine.hpp"
#include "core/subgraph.hpp"
#include "graph/degree_stats.hpp"
#include "graph/generators.hpp"
#include "graph/spectral.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) try {
  using namespace saer;
  const CliArgs args(argc, argv);
  const auto n = checked_node_id("n", args.get_uint("n", 4096));
  const auto d = static_cast<std::uint32_t>(args.get_uint("d", 6));
  const double c = args.get_double("c", 3.0);
  const std::uint64_t seed = args.get_uint("seed", 2);

  const BipartiteGraph host = random_regular(n, theorem_degree(n), seed);
  std::printf("host graph:  %s\n", describe(host).c_str());

  ProtocolParams params;
  params.d = d;
  params.c = c;
  params.seed = seed;
  const RunResult res = run_protocol(host, params);
  if (!res.completed) {
    std::printf("protocol did not complete; raise --c\n");
    return 1;
  }
  std::printf("SAER placed %llu edges in %u rounds (%.2f messages/edge)\n",
              static_cast<unsigned long long>(res.total_balls), res.rounds,
              res.work_per_ball());

  const BipartiteGraph overlay = assignment_subgraph(host, res);
  const SubgraphStats stats = subgraph_stats(host, overlay);
  std::printf("overlay:     %s\n", describe(overlay).c_str());
  std::printf("degree bounds: client <= %u (= d), server <= %u (<= c*d = %llu)\n",
              stats.client_degree_max, stats.server_degree_max,
              static_cast<unsigned long long>(params.capacity()));
  std::printf("kept %.2f%% of the host edges\n", 100.0 * stats.edge_fraction);

  const SpectralEstimate host_spec = estimate_lambda2(host);
  const SpectralEstimate overlay_spec = estimate_lambda2(overlay);
  std::printf("spectral gap (1 - lambda2 of the client-projection walk):\n");
  std::printf("  host:    %.4f\n", host_spec.gap());
  std::printf("  overlay: %.4f %s\n", overlay_spec.gap(),
              overlay_spec.gap() > 0.25
                  ? "-> a bounded-degree expander"
                  : "(raise --d for a larger gap)");
  return 0;
} catch (const std::invalid_argument& err) {
  std::fprintf(stderr, "%s: %s\n", argv[0], err.what());
  return 2;
}
