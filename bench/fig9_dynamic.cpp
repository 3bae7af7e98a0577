// Figure F9: dynamic regime (Section 4 future work).  Online client
// arrivals plus permanent server failures on a proximity topology; the
// paper conjectures SAER reaches a metastable regime with good
// performance.  Reported: backlog peak, latency percentiles, max load.
//
// Runs as a sweep grid (one point per scenario) with a custom PointRunner
// that maps the dynamic process onto the standard run observables, so the
// binary inherits --jobs/--jsonl/--checkpoint/--shard.  The dynamic-only
// columns (backlog, latency) are captured in a side table by the runner;
// for runs reloaded from a checkpoint they are not re-derivable from the
// archive and render as "-".

#include <algorithm>
#include <cstdio>
#include <optional>

#include "bench_common.hpp"
#include "core/dynamic.hpp"
#include "sim/figure.hpp"

namespace {

/// Dynamic-only observables, outside the standard sweep row.
struct DynamicExtras {
  std::uint64_t backlog_peak = 0;
  std::uint32_t latency_p50 = 0;
  std::uint32_t latency_p99 = 0;
  std::uint64_t failed_servers = 0;
};

}  // namespace

int main(int argc, char** argv) try {
  using namespace saer;
  const CliArgs args(argc, argv);
  const std::string csv = figure_preamble(
      args, "fig9_dynamic",
      "online arrivals + server churn: metastability of SAER (Section 4)");

  const auto n = checked_node_id("n", args.get_uint("n", 16384));
  const auto d = static_cast<std::uint32_t>(args.get_uint("d", 2));
  const double c = args.get_double("c", 4.0);
  const std::uint64_t seed = args.get_uint("seed", 42);
  const SweepOptions sweep_options = benchfig::sweep_options(args);
  benchfig::reject_unknown_flags(args);

  struct Scenario {
    std::string label;
    std::uint32_t arrivals;  // clients per round (0 = all at once)
    double failure_rate;
  };
  const std::vector<Scenario> scenarios = {
      {"all-at-once, no churn", 0, 0.0},
      {"n/64 per round, no churn", n / 64, 0.0},
      {"n/256 per round, no churn", n / 256, 0.0},
      {"n/64 per round, 0.01% churn", n / 64, 0.0001},
      {"n/64 per round, 0.1% churn", n / 64, 0.001},
      {"n/256 per round, 0.1% churn", n / 256, 0.001},
  };

  // One slot per (point, replication=0); each runner writes only its own.
  std::vector<std::optional<DynamicExtras>> extras(scenarios.size());

  std::vector<SweepPoint> grid;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const Scenario& sc = scenarios[i];
    SweepPoint point;
    point.label = sc.label;
    // One shared ring topology for every scenario (deterministic builder).
    point.factory = [n](std::uint64_t) {
      return ring_proximity(n, theorem_degree(n));
    };
    point.config.params.d = d;
    point.config.params.c = c;
    point.config.replications = 1;
    point.config.master_seed = seed;
    point.config.resample_graph = false;
    point.topology_key = topology_cache_key("ring", n);
    point.runner = [sc, &slot = extras[i]](const BipartiteGraph& graph,
                                           const ProtocolParams& params,
                                           std::uint32_t) {
      DynamicParams p;
      p.base = params;
      p.arrivals_per_round = sc.arrivals;
      p.server_failure_rate = sc.failure_rate;
      const DynamicResult dyn = run_dynamic(graph, p);
      std::uint64_t backlog_peak = 0;
      for (const std::uint64_t b : dyn.backlog_series) {
        backlog_peak = std::max(backlog_peak, b);
      }
      slot = DynamicExtras{backlog_peak, dyn.latency_p50, dyn.latency_p99,
                           dyn.failed_servers};
      RunResult res;
      res.completed = dyn.completed;
      res.rounds = dyn.rounds;
      res.total_balls = dyn.total_balls;
      res.alive_balls = dyn.unassigned_balls;
      res.work_messages = dyn.work_messages;
      res.max_load = dyn.max_load;
      res.burned_servers = dyn.burned_servers;
      return res;
    };
    grid.push_back(std::move(point));
  }
  const SweepResult swept = SweepScheduler(sweep_options).run(grid);

  FigureWriter fig(
      "F9  dynamic regime on ring proximity  (n=" +
          Table::num(std::uint64_t{n}) + ", d=" + std::to_string(d) +
          ", c=" + Table::num(c, 1) + ")",
      {"scenario", "rounds", "completed", "backlog_peak", "latency_p50",
       "latency_p99", "max_load", "burned", "failed_servers"},
      csv);

  for (const SweepRun& run : swept.runs) {
    const std::optional<DynamicExtras>& ex = extras[run.point];
    fig.add_row({scenarios[run.point].label,
                 Table::num(std::uint64_t{run.record.rounds}),
                 run.record.completed ? "yes" : "NO",
                 ex ? Table::num(ex->backlog_peak) : "-",
                 ex ? Table::num(std::uint64_t{ex->latency_p50}) : "-",
                 ex ? Table::num(std::uint64_t{ex->latency_p99}) : "-",
                 Table::num(run.record.max_load),
                 Table::num(run.record.burned_servers),
                 ex ? Table::num(ex->failed_servers) : "-"});
  }
  fig.finish();
  benchfig::print_sweep_summary(swept, sweep_options);
  std::printf(
      "expected shape: staggered arrivals keep the backlog a small fraction "
      "of n*d with p99 latency O(1) rounds; mild churn tolerated without "
      "load-bound violations (metastable regime conjectured in Section 4)\n");
  return 0;
} catch (const std::invalid_argument& err) {
  std::fprintf(stderr, "%s: %s\n", argv[0], err.what());
  return 2;
}
