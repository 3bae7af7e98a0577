// Ablation A1: burned (SAER) vs saturated (RAES) rejection policies.
//
// The single design difference between the two protocols is what a server
// does after its threshold trips: SAER stops accepting forever (burned),
// RAES only rejects rounds that would overflow (saturated, transient).
// DESIGN.md calls this the key design choice; this ablation quantifies its
// cost across the capacity range where it matters (small c), per round.
//
// Runs as a sweep grid (one point per c x protocol), so the binary
// inherits --jobs/--jsonl/--checkpoint/--shard from the scheduler.

#include <cstdio>

#include "bench_common.hpp"
#include "core/engine.hpp"
#include "sim/figure.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) try {
  using namespace saer;
  const CliArgs args(argc, argv);
  const std::string csv = figure_preamble(
      args, "ablation_burn_policy",
      "cost of burning vs transient saturation across tight capacities");

  const auto n = checked_node_id("n", args.get_uint("n", 16384));
  const auto d = static_cast<std::uint32_t>(args.get_uint("d", 2));
  const auto cs = args.get_double_list("cs", {1.1, 1.25, 1.5, 2.0, 3.0});
  const auto reps = static_cast<std::uint32_t>(args.get_uint("reps", 5));
  const std::uint64_t seed = args.get_uint("seed", 42);
  const std::string topology = args.get("topology", "regular");
  const SweepOptions sweep_options = benchfig::sweep_options(args);
  benchfig::reject_unknown_flags(args);

  // Grid: c-major, then protocol -- point 2*ci + {0: SAER, 1: RAES}.
  std::vector<SweepPoint> grid;
  for (const double c : cs) {
    for (const Protocol protocol : {Protocol::kSaer, Protocol::kRaes}) {
      SweepPoint point = benchfig::make_point(topology, n, reps, seed);
      point.label = to_string(protocol) + " c=" + Table::num(c, 2);
      point.config.params.protocol = protocol;
      point.config.params.d = d;
      point.config.params.c = c;
      grid.push_back(std::move(point));
    }
  }
  const SweepResult swept = SweepScheduler(sweep_options).run(grid);

  FigureWriter fig(
      "A1  burn policy ablation  (n=" + Table::num(std::uint64_t{n}) +
          ", d=" + std::to_string(d) + ", topology=" + topology + ")",
      {"c", "saer_rounds", "raes_rounds", "slowdown", "saer_burned_frac",
       "saer_lost_capacity", "failures"},
      csv);

  for (std::size_t ci = 0; ci < cs.size(); ++ci) {
    const Aggregate& saer = swept.aggregates[2 * ci];
    const Aggregate& raes = swept.aggregates[2 * ci + 1];
    // A burned server strands (cap - load) slots forever; approximate the
    // stranded fraction by burned_fraction * average headroom.
    const double slowdown = raes.rounds.mean() > 0
                                ? saer.rounds.mean() / raes.rounds.mean()
                                : 0.0;
    fig.add_row(
        {Table::num(cs[ci], 2), Table::num(saer.rounds.mean(), 2),
         Table::num(raes.rounds.mean(), 2), Table::num(slowdown, 2),
         Table::num(saer.burned_fraction.mean(), 4),
         Table::pct(saer.burned_fraction.mean()),  // upper bound on stranded
         Table::num(std::uint64_t{saer.failed + raes.failed})});
  }
  fig.finish();
  benchfig::print_sweep_summary(swept, sweep_options);
  std::printf(
      "expected shape: SAER pays a growing rounds premium over RAES as c "
      "approaches 1 (burned servers strand capacity); the gap vanishes for "
      "comfortable c.  Corollary 2 is the formal statement that RAES "
      "dominates SAER.\n");
  return 0;
} catch (const std::invalid_argument& err) {
  std::fprintf(stderr, "%s: %s\n", argv[0], err.what());
  return 2;
}
