// Figure F8: alive-ball decay and the two-stage structure of the analysis
// (Lemma 13 Stage I exponential decay; Lemma 14 Stage II tail; Section 3.2
// 4/5-factor per-round decay for the work bound).
//
// Runs as a one-point, one-replication sweep grid with deep tracing, so the
// binary shares the scheduler plumbing (--jobs/--jsonl/--checkpoint/
// --shard) with every other figure.  The per-round table needs the live
// trace, which the JSONL archive intentionally does not carry -- a
// checkpoint-resumed rerun therefore reports the summary row only.

#include <cmath>
#include <cstdio>

#include "analysis/recurrences.hpp"
#include "bench_common.hpp"
#include "core/engine.hpp"
#include "core/metrics.hpp"
#include "sim/figure.hpp"

int main(int argc, char** argv) try {
  using namespace saer;
  const CliArgs args(argc, argv);
  const std::string csv = figure_preamble(
      args, "fig8_alive_decay",
      "per-round alive balls vs the Stage I/II analysis envelopes");

  const auto n = checked_node_id("n", args.get_uint("n", 16384));
  const auto d = static_cast<std::uint32_t>(args.get_uint("d", 2));
  const double c = args.get_double("c", 2.0);
  const std::uint64_t seed = args.get_uint("seed", 42);
  const std::string topology = args.get("topology", "regular");
  SweepOptions sweep_options = benchfig::sweep_options(args);
  sweep_options.keep_traces = true;
  benchfig::reject_unknown_flags(args);

  SweepPoint point = benchfig::make_point(topology, n, 1, seed);
  point.config.params.d = d;
  point.config.params.c = c;
  point.config.params.deep_trace = true;
  const SweepResult swept = SweepScheduler(sweep_options).run({point});
  if (swept.runs.empty()) {  // possible only under --shard with no slice
    benchfig::print_sweep_summary(swept, sweep_options);
    return 0;
  }
  const RunRecord& rec = swept.runs.front().record;

  const std::uint32_t delta = theorem_degree(n);
  const std::uint32_t T = stage_boundary_T(c, 1.0, d, delta, n);
  const std::uint64_t total = rec.total_balls;
  const double logn = std::log(static_cast<double>(n));

  FigureWriter fig(
      "F8  alive-ball decay  (n=" + Table::num(std::uint64_t{n}) +
          ", d=" + std::to_string(d) + ", c=" + Table::num(c, 1) +
          ", stage boundary T=" + Table::num(std::uint64_t{T}) + ")",
      {"round", "alive_after", "alive_ratio", "accept_rate", "stage",
       "r_max_neighborhood"},
      csv);

  std::uint64_t prev_alive = total;
  for (const RoundStats& r : rec.trace) {
    const std::uint64_t after = r.alive_begin - r.accepted;
    const double ratio =
        prev_alive ? static_cast<double>(after) / static_cast<double>(prev_alive)
                   : 0.0;
    const double accept_rate =
        r.submitted ? static_cast<double>(r.accepted) /
                          static_cast<double>(r.submitted)
                    : 1.0;
    fig.add_row({Table::num(std::uint64_t{r.round}), Table::num(after),
                 Table::num(ratio, 4), Table::num(accept_rate, 4),
                 r.round <= T ? "I" : "II",
                 Table::num(r.r_max_neighborhood)});
    prev_alive = after;
  }
  fig.finish();
  if (rec.trace.empty() && swept.resumed_runs) {
    std::printf(
        "(per-round rows unavailable: the run was reloaded from the JSONL "
        "archive, which stores observables, not traces; delete the "
        "checkpoint to re-simulate)\n");
  }

  std::printf(
      "heavy-stage decay factor = %.3f (Section 3.2 bound: <= ~0.8 per "
      "round w.h.p. while alive >= nd/log n)\n"
      "completion: %s in %u rounds (3 ln n horizon = %.0f)\n",
      swept.runs.front().decay_rate, rec.completed ? "yes" : "NO", rec.rounds,
      3.0 * logn);
  benchfig::print_sweep_summary(swept, sweep_options);
  return 0;
} catch (const std::invalid_argument& err) {
  std::fprintf(stderr, "%s: %s\n", argv[0], err.what());
  return 2;
}
