// Figure F16: heavily-loaded regime (related work: Berenbrink et al. [7],
// Lenzen et al. [22] study m >> n).  The paper treats d = Theta(1); here we
// scale d up to log n and beyond at fixed n and ask whether the O(log n)
// completion and O(1) work per ball persist when the system carries
// n*d >> n balls.
//
// Runs as a sweep grid (one point per d), so the binary inherits
// --jobs/--jsonl/--checkpoint/--shard from the scheduler.

#include <cmath>
#include <cstdio>

#include "analysis/recurrences.hpp"
#include "bench_common.hpp"
#include "sim/figure.hpp"

int main(int argc, char** argv) try {
  using namespace saer;
  const CliArgs args(argc, argv);
  const std::string csv = figure_preamble(
      args, "fig16_heavy_load",
      "heavily-loaded regime: request number d up to and beyond log n");

  const auto n = checked_node_id("n", args.get_uint("n", 8192));
  const double c = args.get_double("c", 2.0);
  const auto reps = static_cast<std::uint32_t>(args.get_uint("reps", 5));
  const std::uint64_t seed = args.get_uint("seed", 42);
  const std::string topology = args.get("topology", "regular");
  const SweepOptions sweep_options = benchfig::sweep_options(args);
  benchfig::reject_unknown_flags(args);

  const auto logn = static_cast<std::uint32_t>(
      std::lround(std::log2(static_cast<double>(n))));
  const std::vector<std::uint32_t> ds = {
      1, 2, 4, logn / 2, logn, 2 * logn, 4 * logn};

  std::vector<SweepPoint> grid;
  for (const std::uint32_t d : ds) {
    SweepPoint point = benchfig::make_point(topology, n, reps, seed);
    point.label = "d=" + std::to_string(d);
    point.config.params.d = d;
    point.config.params.c = c;
    grid.push_back(std::move(point));
  }
  const SweepResult swept = SweepScheduler(sweep_options).run(grid);

  FigureWriter fig(
      "F16  heavy load  (n=" + Table::num(std::uint64_t{n}) +
          ", c=" + Table::num(c, 1) + ", topology=" + topology + ")",
      {"d", "balls", "rounds_mean", "work_per_ball", "max_load",
       "cap=c*d", "failure_rate"},
      csv);

  for (std::size_t i = 0; i < ds.size(); ++i) {
    const std::uint32_t d = ds[i];
    const Aggregate& agg = swept.aggregates[i];
    fig.add_row({Table::num(std::uint64_t{d}),
                 Table::num(static_cast<std::uint64_t>(n) * d),
                 Table::num(agg.rounds.mean(), 2),
                 Table::num(agg.work_per_ball.mean(), 3),
                 Table::num(agg.max_load.mean(), 1),
                 Table::num(ProtocolParams{.d = d, .c = c}.capacity()),
                 Table::pct(agg.failure_rate())});
  }
  fig.finish();
  benchfig::print_sweep_summary(swept, sweep_options);
  std::printf(
      "expected shape: completion *improves* with d (relative fluctuations "
      "of r_t(u) shrink as d grows), work/ball tends to 2, max load tracks "
      "c*d -- the heavily-loaded regime is the easy direction for the "
      "threshold rule\n");
  return 0;
} catch (const std::invalid_argument& err) {
  std::fprintf(stderr, "%s: %s\n", argv[0], err.what());
  return 2;
}
