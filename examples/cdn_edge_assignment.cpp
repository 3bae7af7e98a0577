// CDN edge assignment: the proximity scenario from the paper's introduction
// (Section 1.1(ii)).  Clients and edge caches live on a 2-D torus (think
// metro areas); each client may only fetch from caches within a fixed
// radius.  SAER assigns each client's d parallel connections to caches so
// no cache exceeds its connection budget, using only accept/reject bits --
// caches never reveal their load (the privacy property of Section 2.2).
//
//   ./examples/cdn_edge_assignment [--side 128] [--radius 7] [--d 2]
//                                  [--c 3] [--seed 7]

#include <cstdio>
#include <stdexcept>

#include "baselines/one_shot.hpp"
#include "core/engine.hpp"
#include "core/metrics.hpp"
#include "graph/degree_stats.hpp"
#include "graph/generators.hpp"
#include "util/cli.hpp"
#include "util/histogram.hpp"

int main(int argc, char** argv) try {
  using namespace saer;
  const CliArgs args(argc, argv);
  const auto side = checked_node_id("side", args.get_uint("side", 128));
  const auto radius = static_cast<std::uint32_t>(args.get_uint("radius", 7));
  const auto d = static_cast<std::uint32_t>(args.get_uint("d", 2));
  const double c = args.get_double("c", 3.0);
  const std::uint64_t seed = args.get_uint("seed", 7);

  const BipartiteGraph city = grid_proximity(side, radius);
  std::printf("metro grid %ux%u: %s\n", side, side, describe(city).c_str());
  std::printf("each client reaches the (2r+1)^2 = %u caches within radius %u\n",
              (2 * radius + 1) * (2 * radius + 1), radius);

  ProtocolParams params;
  params.d = d;
  params.c = c;
  params.seed = seed;
  const RunResult saer = run_protocol(city, params);
  check_result(city, params, saer);

  // Compare with the naive policy: every connection to a uniform random
  // nearby cache, no admission control.
  const AllocationResult naive = one_shot_random(city, d, seed);

  std::printf("\nSAER admission control:\n");
  std::printf("  completed in %u rounds, %.2f messages per connection\n",
              saer.rounds, saer.work_per_ball());
  std::printf("  max cache load %llu (budget c*d = %llu)\n",
              static_cast<unsigned long long>(saer.max_load),
              static_cast<unsigned long long>(params.capacity()));
  std::printf("naive random placement:\n");
  std::printf("  max cache load %llu (unbounded policy)\n",
              static_cast<unsigned long long>(naive.max_load));

  std::printf("\ncache load histogram under SAER (load  #caches  bar):\n%s",
              load_histogram(saer.loads).ascii(40).c_str());
  return saer.completed ? 0 : 1;
} catch (const std::invalid_argument& err) {
  std::fprintf(stderr, "%s: %s\n", argv[0], err.what());
  return 2;
}
