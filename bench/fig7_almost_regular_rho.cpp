// Figure F7: robustness to almost-regularity (Theorem 1 general case,
// Appendix D).  Sweeps the heavy-client mixture so the effective
// rho = Delta_max(S)/Delta_min(C) grows, and reports completion/work/load.
// Theorem 1 predicts stable behaviour for any constant rho once
// c >= 32*rho; the figure also runs the paper's sqrt(n) example.
//
// Runs as a sweep grid (one point per mixture), so the binary inherits
// --jobs/--jsonl/--checkpoint/--shard from the scheduler.

#include <cmath>
#include <cstdio>

#include "bench_common.hpp"
#include "graph/degree_stats.hpp"
#include "sim/figure.hpp"

int main(int argc, char** argv) try {
  using namespace saer;
  const CliArgs args(argc, argv);
  const std::string csv = figure_preamble(
      args, "fig7_almost_regular_rho",
      "completion vs degree skew rho on almost-regular mixtures");

  const auto n = checked_node_id("n", args.get_uint("n", 16384));
  const auto d = static_cast<std::uint32_t>(args.get_uint("d", 2));
  const double c = args.get_double("c", 2.0);
  const auto reps = static_cast<std::uint32_t>(args.get_uint("reps", 5));
  const std::uint64_t seed = args.get_uint("seed", 42);
  const SweepOptions sweep_options = benchfig::sweep_options(args);
  benchfig::reject_unknown_flags(args);

  const std::uint32_t base = theorem_degree(n);
  struct Mixture {
    std::string label;
    std::uint32_t heavy_delta;
    double heavy_fraction;
  };
  const std::uint32_t sqrt_n =
      static_cast<std::uint32_t>(std::lround(std::sqrt(n)));
  const std::vector<Mixture> mixtures = {
      {"uniform (rho~1)", base, 0.0},
      {"2x heavies 5%", 2 * base, 0.05},
      {"4x heavies 5%", 4 * base, 0.05},
      {"8x heavies 2%", 8 * base, 0.02},
      {"sqrt(n) heavies 2% (paper example)", std::max(sqrt_n, 2 * base), 0.02},
      {"sqrt(n) heavies 10%", std::max(sqrt_n, 2 * base), 0.10},
  };

  std::vector<SweepPoint> grid;
  for (const Mixture& mix : mixtures) {
    AlmostRegularParams p;
    p.base_delta = base;
    p.heavy_delta = mix.heavy_delta;
    p.heavy_fraction = mix.heavy_fraction;
    SweepPoint point;
    point.label = mix.label;
    point.factory = [n, p](std::uint64_t s) { return almost_regular(n, p, s); };
    point.config.params.d = d;
    point.config.params.c = c;
    point.config.replications = reps;
    point.config.master_seed = seed;
    grid.push_back(std::move(point));
  }
  const SweepResult swept = SweepScheduler(sweep_options).run(grid);

  FigureWriter fig(
      "F7  almost-regular robustness  (n=" + Table::num(std::uint64_t{n}) +
          ", base delta=" + Table::num(std::uint64_t{base}) +
          ", d=" + std::to_string(d) + ", c=" + Table::num(c, 1) + ")",
      {"mixture", "measured_rho", "eta", "rounds_mean", "work_per_ball",
       "max_load", "failure_rate"},
      csv);

  for (std::size_t i = 0; i < mixtures.size(); ++i) {
    // Measure the realized skew on one sample.
    const DegreeStats stats = degree_stats(grid[i].factory(seed));
    const Aggregate& agg = swept.aggregates[i];
    fig.add_row({mixtures[i].label, Table::num(stats.rho, 2),
                 Table::num(stats.eta, 2), Table::num(agg.rounds.mean(), 2),
                 Table::num(agg.work_per_ball.mean(), 3),
                 Table::num(agg.max_load.mean(), 2),
                 Table::pct(agg.failure_rate())});
  }
  fig.finish();
  benchfig::print_sweep_summary(swept, sweep_options);
  std::printf(
      "expected shape: flat completion/work across constant rho; Theorem 1 "
      "holds for every row (c can always be raised to 32*rho)\n");
  return 0;
} catch (const std::invalid_argument& err) {
  std::fprintf(stderr, "%s: %s\n", argv[0], err.what());
  return 2;
}
