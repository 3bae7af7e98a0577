// Ablation A2: synchronous rounds vs asynchronous message delays.
//
// The model of Section 2.1 is synchronous; this ablation re-runs the
// threshold protocol under per-message random delays (net/async_simulator)
// and compares settle times and work.  Expected shape: the asynchronous
// process remains stable (same load bound by construction) and its settle
// time scales with the mean message delay, supporting the Section 4 claim
// that the simple threshold structure tolerates less idealized execution.
//
// Runs as a sweep grid -- point 0 is the synchronous reference, then one
// point per max_delay with a custom PointRunner wrapping run_async -- so
// the binary inherits --jobs/--jsonl/--checkpoint/--shard.  In the
// streamed async rows, `rounds` archives the finish *time*; the settle
// percentiles live in a side table and render as "-" for rows reloaded
// from a checkpoint archive.

#include <algorithm>
#include <cstdio>
#include <limits>
#include <optional>

#include "bench_common.hpp"
#include "core/engine.hpp"
#include "net/async_simulator.hpp"
#include "sim/figure.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

struct AsyncExtras {
  double settle_mean = 0;
  std::uint64_t settle_p99 = 0;
  std::uint64_t finish_time = 0;
};

}  // namespace

int main(int argc, char** argv) try {
  using namespace saer;
  const CliArgs args(argc, argv);
  const std::string csv = figure_preamble(
      args, "ablation_async",
      "threshold protocol under asynchronous message delays");

  const auto n = checked_node_id("n", args.get_uint("n", 8192));
  const auto d = static_cast<std::uint32_t>(args.get_uint("d", 2));
  const double c = args.get_double("c", 2.0);
  const auto delays = args.get_uint_list("delays", {1, 2, 4, 8, 16});
  const auto reps = static_cast<std::uint32_t>(args.get_uint("reps", 3));
  const std::uint64_t seed = args.get_uint("seed", 42);
  const std::string topology = args.get("topology", "regular");
  const SweepOptions sweep_options = benchfig::sweep_options(args);
  benchfig::reject_unknown_flags(args);

  // One slot per (async point, replication); each runner writes its own.
  std::vector<std::optional<AsyncExtras>> extras(delays.size() * reps);

  std::vector<SweepPoint> grid;
  {
    SweepPoint sync = benchfig::make_point(topology, n, reps, seed);
    sync.label = "sync";
    sync.config.params.d = d;
    sync.config.params.c = c;
    grid.push_back(std::move(sync));
  }
  for (std::size_t i = 0; i < delays.size(); ++i) {
    SweepPoint point = benchfig::make_point(topology, n, reps, seed);
    point.label = "delay=" + std::to_string(delays[i]);
    point.config.params.d = d;
    point.config.params.c = c;
    point.runner = [&extras, base = i * reps,
                    delay = static_cast<std::uint32_t>(delays[i])](
                       const BipartiteGraph& graph,
                       const ProtocolParams& params,
                       std::uint32_t replication) {
      AsyncParams ap;
      ap.base = params;
      ap.max_delay = delay;
      const AsyncResult ares = run_async(graph, ap);
      extras[base + replication] = AsyncExtras{
          ares.settle_mean, ares.settle_p99, ares.finish_time};
      RunResult res;
      res.completed = ares.completed;
      res.rounds = static_cast<std::uint32_t>(std::min<std::uint64_t>(
          ares.finish_time, std::numeric_limits<std::uint32_t>::max()));
      res.total_balls = ares.total_balls;
      res.alive_balls = ares.unassigned_balls;
      res.work_messages = ares.work_messages;
      res.max_load = ares.max_load;
      res.burned_servers = ares.burned_servers;
      return res;
    };
    grid.push_back(std::move(point));
  }
  const SweepResult swept = SweepScheduler(sweep_options).run(grid);

  // Fold every run (Aggregate averages rounds/work over completed runs
  // only; this ablation's means have always covered all replications).
  struct PointFold {
    Accumulator rounds, work, load;
    bool all_completed = true;
  };
  std::vector<PointFold> folds(grid.size());
  for (const SweepRun& run : swept.runs) {
    PointFold& fold = folds[run.point];
    fold.rounds.add(run.record.rounds);
    fold.work.add(run_record_work_per_ball(run.record));
    fold.load.add(static_cast<double>(run.record.max_load));
    fold.all_completed = fold.all_completed && run.record.completed;
  }

  // Under --shard this slice may own no sync replication at all.
  const std::string sync_ref =
      folds[0].rounds.count()
          ? Table::num(folds[0].rounds.mean(), 1) + " rounds, " +
                Table::num(folds[0].work.mean(), 2) + " msg/ball"
          : std::string("not in this shard");
  FigureWriter fig(
      "A2  async execution  (n=" + Table::num(std::uint64_t{n}) +
          ", d=" + std::to_string(d) + ", c=" + Table::num(c, 1) +
          "; sync reference: " + sync_ref + ")",
      {"max_delay", "settle_mean", "settle_p99", "finish_time",
       "work_per_ball", "max_load", "completed"},
      csv);

  for (std::size_t i = 0; i < delays.size(); ++i) {
    Accumulator settle, p99, finish;
    for (std::uint32_t rep = 0; rep < reps; ++rep) {
      const std::optional<AsyncExtras>& ex = extras[i * reps + rep];
      if (!ex) continue;
      settle.add(ex->settle_mean);
      p99.add(static_cast<double>(ex->settle_p99));
      finish.add(static_cast<double>(ex->finish_time));
    }
    // A point wholly owned by other shards has no folds: render "-"
    // rather than empty-accumulator zeros posing as measurements.
    const PointFold& fold = folds[1 + i];
    const bool have = fold.rounds.count() > 0;
    fig.add_row({Table::num(delays[i]),
                 settle.count() ? Table::num(settle.mean(), 2) : "-",
                 p99.count() ? Table::num(p99.mean(), 1) : "-",
                 finish.count() ? Table::num(finish.mean(), 1) : "-",
                 have ? Table::num(fold.work.mean(), 3) : "-",
                 have ? Table::num(fold.load.mean(), 2) : "-",
                 have ? (fold.all_completed ? "yes" : "NO") : "-"});
  }
  fig.finish();
  benchfig::print_sweep_summary(swept, sweep_options);
  std::printf(
      "expected shape: settle time grows linearly in the mean delay with "
      "work/ball near the synchronous value; load bound c*d never violated "
      "(per-request threshold rule is delay-oblivious)\n");
  return 0;
} catch (const std::invalid_argument& err) {
  std::fprintf(stderr, "%s: %s\n", argv[0], err.what());
  return 2;
}
