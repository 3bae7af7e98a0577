// Trusted-server marketplace: the trust scenario from the paper's
// introduction (Section 1.1(i)).  Buyers (clients) only send order flow to
// brokers (servers) inside the one clearing group they trust; brokers cap
// how many orders they accept.  We run both SAER and RAES and show the
// trade-off against a sequential greedy that requires brokers to disclose
// their current book size -- exactly the information leak SAER avoids.
//
//   ./examples/trusted_marketplace [--n 8192] [--groups 8] [--delta 64]
//                                  [--d 2] [--c 3] [--seed 11]

#include <cstdio>
#include <stdexcept>

#include "baselines/sequential_greedy.hpp"
#include "core/engine.hpp"
#include "core/metrics.hpp"
#include "graph/degree_stats.hpp"
#include "graph/generators.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) try {
  using namespace saer;
  const CliArgs args(argc, argv);
  const auto n = checked_node_id("n", args.get_uint("n", 8192));
  const auto groups = static_cast<std::uint32_t>(args.get_uint("groups", 8));
  const auto delta = static_cast<std::uint32_t>(
      args.get_uint("delta", std::min<std::uint64_t>(64, n / groups)));
  const auto d = static_cast<std::uint32_t>(args.get_uint("d", 2));
  const double c = args.get_double("c", 3.0);
  const std::uint64_t seed = args.get_uint("seed", 11);

  const BipartiteGraph market = trust_groups(n, delta, groups, seed);
  std::printf("marketplace: %s\n", describe(market).c_str());
  std::printf("%u clearing groups; every buyer trusts %u brokers in one group\n",
              groups, delta);

  ProtocolParams params;
  params.d = d;
  params.c = c;
  params.seed = seed;

  params.protocol = Protocol::kSaer;
  const RunResult saer = run_protocol(market, params);
  check_result(market, params, saer);
  params.protocol = Protocol::kRaes;
  const RunResult raes = run_protocol(market, params);
  check_result(market, params, raes);
  const AllocationResult greedy = sequential_greedy_k(market, d, 2, seed);

  std::printf("\n%-22s %10s %12s %10s %s\n", "algorithm", "rounds",
              "msgs/order", "max book", "broker discloses load?");
  std::printf("%-22s %10u %12.2f %10llu %s\n", "SAER", saer.rounds,
              saer.work_per_ball(),
              static_cast<unsigned long long>(saer.max_load), "no (1 bit)");
  std::printf("%-22s %10u %12.2f %10llu %s\n", "RAES", raes.rounds,
              raes.work_per_ball(),
              static_cast<unsigned long long>(raes.max_load), "no (1 bit)");
  std::printf("%-22s %10s %12.2f %10llu %s\n", "sequential greedy-2",
              "(n*d seq)",
              static_cast<double>(greedy.probes) /
                  static_cast<double>(saer.total_balls),
              static_cast<unsigned long long>(greedy.max_load),
              "YES (exact load)");

  std::printf(
      "\norder book cap c*d = %llu enforced by SAER/RAES by construction; "
      "greedy gets lower load but leaks every broker's book size and is "
      "inherently sequential.\n",
      static_cast<unsigned long long>(params.capacity()));
  return (saer.completed && raes.completed) ? 0 : 1;
} catch (const std::invalid_argument& err) {
  std::fprintf(stderr, "%s: %s\n", argv[0], err.what());
  return 2;
}
