// Figure F6: SAER vs RAES vs baselines across topologies (Corollary 2 and
// the Section 1.3 landscape): completion rounds, work/probes, max load.
//
// The SAER/RAES measurements run as a sweep grid (one point per
// topology x protocol), so the binary inherits --jobs/--jsonl/
// --checkpoint/--shard from the scheduler; the non-protocol baselines
// (one-shot, sequential greedy, parallel greedy) are cheap single passes
// and stay inline, rebuilt from the same per-replication graph seeds the
// scheduler derives.  The deterministic seed scheme means each
// replication's graph is constructed up to three times (SAER point, RAES
// point, baseline loop) -- accepted: builds are a small fraction of the
// run cost here, and keeping the baselines off the protocol stream keeps
// the JSONL archive pure.

#include <cstdio>

#include "baselines/one_shot.hpp"
#include "baselines/parallel_greedy.hpp"
#include "baselines/sequential_greedy.hpp"
#include "bench_common.hpp"
#include "core/engine.hpp"
#include "sim/figure.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

struct Row {
  saer::Accumulator rounds, work_per_ball, max_load;
};

}  // namespace

int main(int argc, char** argv) try {
  using namespace saer;
  const CliArgs args(argc, argv);
  const std::string csv = figure_preamble(
      args, "fig6_protocol_comparison",
      "SAER vs RAES vs one-shot / sequential greedy / parallel greedy");

  const auto n = checked_node_id("n", args.get_uint("n", 16384));
  const auto d = static_cast<std::uint32_t>(args.get_uint("d", 2));
  const double c = args.get_double("c", 2.0);
  const auto reps = static_cast<std::uint32_t>(args.get_uint("reps", 5));
  const std::uint64_t seed = args.get_uint("seed", 42);
  const SweepOptions sweep_options = benchfig::sweep_options(args);
  benchfig::reject_unknown_flags(args);

  const std::vector<std::string> topologies = {"regular", "ring"};

  // Grid: topology-major, then protocol -- point 2*t + {0: SAER, 1: RAES}.
  std::vector<SweepPoint> grid;
  for (const std::string& topology : topologies) {
    for (const Protocol proto : {Protocol::kSaer, Protocol::kRaes}) {
      SweepPoint point = benchfig::make_point(topology, n, reps, seed);
      point.label = to_string(proto) + " " + point.label;
      point.config.params.protocol = proto;
      point.config.params.d = d;
      point.config.params.c = c;
      grid.push_back(std::move(point));
    }
  }
  const SweepResult swept = SweepScheduler(sweep_options).run(grid);

  // Fold every run (not only completed ones, which is all Aggregate
  // averages): the baseline rows below average all replications, and the
  // table must compare the algorithms over the same run set.
  std::vector<Row> protocol_rows(grid.size());
  for (const SweepRun& run : swept.runs) {
    Row& row = protocol_rows[run.point];
    row.rounds.add(run.record.rounds);
    row.work_per_ball.add(run_record_work_per_ball(run.record));
    row.max_load.add(static_cast<double>(run.record.max_load));
  }

  for (std::size_t t = 0; t < topologies.size(); ++t) {
    const std::string& topology = topologies[t];
    Row oneshot, greedy2, pargreedy;
    const GraphFactory factory = benchfig::make_factory(topology, n);
    for (std::uint32_t rep = 0; rep < reps; ++rep) {
      // Same derived seeds as the scheduler's replications, so the
      // baselines see the exact graphs the grid points ran on.
      const std::uint64_t gseed = replication_seed(seed, 2 * rep + 1);
      const std::uint64_t pseed = replication_seed(seed, 2 * rep);
      const BipartiteGraph g = factory(gseed);
      const double balls = static_cast<double>(n) * d;

      const AllocationResult os = one_shot_random(g, d, pseed);
      oneshot.rounds.add(1);
      oneshot.work_per_ball.add(static_cast<double>(os.probes) / balls);
      oneshot.max_load.add(static_cast<double>(os.max_load));

      const AllocationResult g2 = sequential_greedy_k(g, d, 2, pseed);
      greedy2.rounds.add(static_cast<double>(n) * d);  // sequential steps
      greedy2.work_per_ball.add(static_cast<double>(g2.probes) / balls);
      greedy2.max_load.add(static_cast<double>(g2.max_load));

      ParallelGreedyParams pg;
      pg.d = d;
      pg.k = 2;
      pg.rounds = 3;
      pg.quota = std::max<std::uint32_t>(1, d);
      pg.seed = pseed;
      const AllocationResult pr = parallel_greedy(g, pg);
      pargreedy.rounds.add(pg.rounds);
      pargreedy.work_per_ball.add(static_cast<double>(pr.probes) / balls);
      pargreedy.max_load.add(static_cast<double>(pr.max_load));
    }

    FigureWriter fig(
        "F6  protocol comparison on " + topology + "  (n=" +
            Table::num(std::uint64_t{n}) + ", d=" + std::to_string(d) +
            ", c=" + Table::num(c, 1) + ", cap=" +
            Table::num(std::uint64_t(
                ProtocolParams{.d = d, .c = c}.capacity())) + ")",
        {"algorithm", "rounds_or_steps", "work_per_ball", "max_load",
         "load_bound"},
        csv.empty() ? std::string{} : csv + "." + topology);
    auto emit = [&](const std::string& name, const Row& row,
                    const std::string& bound) {
      fig.add_row({name, Table::num(row.rounds.mean(), 1),
                   Table::num(row.work_per_ball.mean(), 3),
                   Table::num(row.max_load.mean(), 2), bound});
    };
    const std::uint64_t cap = ProtocolParams{.d = d, .c = c}.capacity();
    emit("SAER", protocol_rows[2 * t], "<= c*d = " + Table::num(cap));
    emit("RAES", protocol_rows[2 * t + 1], "<= c*d = " + Table::num(cap));
    emit("one-shot random", oneshot, "Theta(log n/log log n)");
    emit("seq greedy k=2", greedy2, "Theta(log log n)");
    emit("parallel greedy r=3", pargreedy, "O((log n/log log n)^(1/r))");
    fig.finish();
  }
  benchfig::print_sweep_summary(swept, sweep_options);
  std::printf(
      "expected shape: SAER ~ RAES (Corollary 2); both bounded by c*d with "
      "O(1) work/ball; one-shot worst load; sequential greedy best load but "
      "n*d sequential steps and servers must expose loads\n");
  return 0;
} catch (const std::invalid_argument& err) {
  std::fprintf(stderr, "%s: %s\n", argv[0], err.what());
  return 2;
}
