// Online arrivals: the dynamic scenario of Section 4 (future work).
// Clients join a ring-proximity system in waves while a small fraction of
// servers fails permanently each round; SAER keeps running unchanged.
// Demonstrates the metastable regime: bounded backlog, stable per-cohort
// assignment latency, and the load bound never violated.
//
//   ./examples/online_arrivals [--n 8192] [--waves 64] [--churn 0.0005]
//                              [--d 2] [--c 4] [--seed 3]

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "core/dynamic.hpp"
#include "graph/degree_stats.hpp"
#include "graph/generators.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) try {
  using namespace saer;
  const CliArgs args(argc, argv);
  const auto n = checked_node_id("n", args.get_uint("n", 8192));
  const auto waves = static_cast<std::uint32_t>(args.get_uint("waves", 64));
  const double churn = args.get_double("churn", 0.0005);
  const auto d = static_cast<std::uint32_t>(args.get_uint("d", 2));
  const double c = args.get_double("c", 4.0);
  const std::uint64_t seed = args.get_uint("seed", 3);

  const BipartiteGraph graph = ring_proximity(n, theorem_degree(n));
  std::printf("system: %s\n", describe(graph).c_str());

  DynamicParams params;
  params.base.d = d;
  params.base.c = c;
  params.base.seed = seed;
  params.arrivals_per_round = std::max<std::uint32_t>(1, n / waves);
  params.server_failure_rate = churn;

  std::printf("arrivals: %u clients per round over ~%u waves; churn %.4f%% "
              "of servers fail per round\n",
              params.arrivals_per_round, waves, churn * 100.0);

  const DynamicResult res = run_dynamic(graph, params);

  std::uint64_t backlog_peak = 0;
  for (std::uint64_t b : res.backlog_series)
    backlog_peak = std::max(backlog_peak, b);

  std::printf("\nran %u rounds; %s\n", res.rounds,
              res.completed ? "all balls assigned"
                            : "some balls left unassigned (expected under heavy churn)");
  std::printf("backlog peak: %llu of %llu balls (%.1f%%)\n",
              static_cast<unsigned long long>(backlog_peak),
              static_cast<unsigned long long>(res.total_balls),
              100.0 * static_cast<double>(backlog_peak) /
                  static_cast<double>(res.total_balls));
  std::printf("assignment latency (rounds): mean %.2f, p50 %u, p99 %u, max %u\n",
              res.latency_mean, res.latency_p50, res.latency_p99,
              res.latency_max);
  std::printf("max load %llu (bound c*d = %llu); burned %llu, failed %llu "
              "of %u servers\n",
              static_cast<unsigned long long>(res.max_load),
              static_cast<unsigned long long>(params.base.capacity()),
              static_cast<unsigned long long>(res.burned_servers),
              static_cast<unsigned long long>(res.failed_servers),
              graph.num_servers());
  return res.completed ? 0 : 1;
} catch (const std::invalid_argument& err) {
  std::fprintf(stderr, "%s: %s\n", argv[0], err.what());
  return 2;
}
