// Quickstart: build a constrained topology, run SAER, inspect the result.
//
//   ./examples/quickstart [--n 4096] [--d 2] [--c 4] [--seed 1]
//
// This is the 30-second tour of the public API:
//   1. generate a bipartite client-server graph (graph/generators.hpp)
//   2. configure the protocol           (core/protocol.hpp)
//   3. run it                           (core/engine.hpp)
//   4. read off loads / rounds / work   (core/metrics.hpp)

#include <cstdio>
#include <stdexcept>

#include "core/engine.hpp"
#include "core/metrics.hpp"
#include "graph/degree_stats.hpp"
#include "graph/generators.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) try {
  using namespace saer;
  const CliArgs args(argc, argv);
  const auto n = checked_node_id("n", args.get_uint("n", 4096));
  const auto d = static_cast<std::uint32_t>(args.get_uint("d", 2));
  const double c = args.get_double("c", 4.0);
  const std::uint64_t seed = args.get_uint("seed", 1);

  // 1. A random Delta-regular topology at the theorem's degree scale
  //    Delta = log2(n)^2 -- every client can reach only Delta servers.
  const BipartiteGraph graph = random_regular(n, theorem_degree(n), seed);
  std::printf("topology: %s\n", describe(graph).c_str());

  // 2. SAER with capacity c*d per server.
  ProtocolParams params;
  params.protocol = Protocol::kSaer;
  params.d = d;
  params.c = c;
  params.seed = seed;

  // 3. Run to completion.
  const RunResult result = run_protocol(graph, params);

  // 4. Results.
  std::printf("completed: %s in %u rounds\n",
              result.completed ? "yes" : "NO", result.rounds);
  std::printf("balls: %llu, work: %llu messages (%.2f per ball)\n",
              static_cast<unsigned long long>(result.total_balls),
              static_cast<unsigned long long>(result.work_messages),
              result.work_per_ball());
  const LoadSummary loads = summarize_loads(result.loads, params.capacity());
  std::printf("max load: %llu (bound c*d = %llu), mean %.2f, p99 %lld\n",
              static_cast<unsigned long long>(loads.max),
              static_cast<unsigned long long>(params.capacity()), loads.mean,
              static_cast<long long>(loads.p99));
  std::printf("burned servers: %llu of %u\n",
              static_cast<unsigned long long>(result.burned_servers),
              graph.num_servers());

  // The engine's invariants can always be audited:
  check_result(graph, params, result);
  std::printf("check_result: all invariants hold\n");
  return result.completed ? 0 : 1;
} catch (const std::invalid_argument& err) {
  std::fprintf(stderr, "%s: %s\n", argv[0], err.what());
  return 2;
}
