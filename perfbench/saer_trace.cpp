// Traced replay of one perfbench workload (see perfbench/README.md).
//
// Does the work of `saer sweep` or `saer serve` with the same flags, seeds
// and thread budget, but calls the library's public functions itself so it
// can time each call.  Every call becomes one span (name, thread, start,
// end, two integer arguments) kept in memory and written to
// <dir>/spans.tsv when the replay ends.  The replay's result rows go to
// <dir>/replay.jsonl, so perfbench/run.py can check them against the
// untraced CLI run before it turns the spans into per-layer metrics.
//
// Usage:
//   saer_trace sweep --dir DIR <the workload's saer sweep flags>
//   saer_trace serve --dir DIR <the workload's saer serve flags>
//
// Only the flags the perfbench workloads use are accepted; any other flag
// exits 2, so a workload cannot drift from its replay unnoticed.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/dynamic.hpp"
#include "core/engine.hpp"
#include "core/workspace.hpp"
#include "graph/generators.hpp"
#include "graph/implicit_topology.hpp"
#include "net/load_injector.hpp"
#include "sim/run_record.hpp"
#include "sim/sweep.hpp"
#include "util/cli.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace saer {
namespace {

/// Span log.  record() takes a lock, so pool workers and sink hooks may
/// record concurrently; threads are numbered in order of first appearance.
class Tracer {
 public:
  Tracer() : epoch_(std::chrono::steady_clock::now()) {
    spans_.reserve(std::size_t{1} << 15);
  }

  [[nodiscard]] std::int64_t now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// `name` must be a string literal: spans keep the pointer.
  void record(const char* name, std::int64_t start, std::int64_t end,
              std::uint64_t a = 0, std::uint64_t b = 0) {
    const std::thread::id self = std::this_thread::get_id();
    const std::lock_guard lock(mutex_);
    const auto next = static_cast<unsigned>(threads_.size());
    const unsigned thread = threads_.emplace(self, next).first->second;
    spans_.push_back({name, thread, start, end, a, b});
  }

  /// A zero-length span: one event at one instant.
  void mark(const char* name, std::uint64_t a = 0) {
    const std::int64_t t = now();
    record(name, t, t, a);
  }

  void write(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (!out) throw std::runtime_error("cannot write " + path);
    for (const Span& s : spans_) {
      std::fprintf(out, "%s\t%u\t%lld\t%lld\t%llu\t%llu\n", s.name, s.thread,
                   static_cast<long long>(s.start),
                   static_cast<long long>(s.end),
                   static_cast<unsigned long long>(s.a),
                   static_cast<unsigned long long>(s.b));
    }
    if (std::fclose(out) != 0) throw std::runtime_error("cannot write " + path);
  }

 private:
  struct Span {
    const char* name;
    unsigned thread;
    std::int64_t start;
    std::int64_t end;
    std::uint64_t a;
    std::uint64_t b;
  };

  std::chrono::steady_clock::time_point epoch_;
  std::mutex mutex_;
  std::map<std::thread::id, unsigned> threads_;
  std::vector<Span> spans_;
};

/// The sweep sink's durability steps, as literals the tracer may keep.
const char* durability_span(const std::string& step) {
  if (step == "flush-streams") return "flush-streams";
  if (step == "fsync-checkpoint") return "fsync-checkpoint";
  if (step == "fsync-dir") return "fsync-dir";
  throw std::runtime_error("unknown durability step " + step);
}

/// Replays `saer sweep` for one grid point.  Spans: the topology build
/// (arg a = edges), each engine run (a = replication), the scheduler's
/// run(), every streamed row (a = row index) and every durability step.
int replay_sweep(const CliArgs& args, const std::string& dir, Tracer& tracer) {
  const std::string topology = args.get("topology", "regular");
  const auto n = static_cast<NodeId>(args.get_uint("sizes", 4096));
  const auto delta =
      static_cast<std::uint32_t>(args.get_uint("delta", theorem_degree(n)));
  const auto d = static_cast<std::uint32_t>(args.get_uint("ds", 2));
  const double c = args.get_double("cs", 2.0);
  const auto reps = static_cast<std::uint32_t>(args.get_uint("reps", 5));
  const std::uint64_t seed = args.get_uint("seed", 42);
  const bool share_graph = args.get_bool("share-graph", false);
  const bool no_assignment = args.get_bool("no-assignment", false);
  SweepOptions options;
  options.jobs = static_cast<unsigned>(args.get_uint("jobs", 0));
  options.checkpoint_interval = static_cast<unsigned>(
      args.get_uint("checkpoint-interval", options.checkpoint_interval));
  args.reject_unknown();
  const bool implicit = topology == "implicit-regular";
  if (!implicit && topology != "regular") {
    throw std::invalid_argument(
        "--topology must be regular or implicit-regular");
  }
  // An implicit point cannot carry a runner, so its engine span runs from
  // the topology's construction to its row's hook.  That pairing needs the
  // runs in order on one worker.
  if (implicit && options.jobs != 1) {
    throw std::invalid_argument("the implicit replay needs --jobs 1");
  }

  options.jsonl_path = dir + "/replay.jsonl";
  options.checkpoint_path = dir + "/replay.ckpt";
  std::int64_t implicit_run_start = 0;
  options.on_row_streamed = [&](std::size_t rows) {
    if (implicit) {
      tracer.record("core.engine.run_protocol", implicit_run_start,
                    tracer.now(), rows - 1);
    }
    tracer.mark("sim.sweep.row_streamed", rows - 1);
  };
  options.on_durability = [&tracer](const char* step) {
    tracer.mark(durability_span(step));
  };

  SweepPoint point;
  point.label = "SAER n=" + std::to_string(n) + " d=" + std::to_string(d) +
                " c=" + Table::num(c, 2);
  point.config.params.protocol = Protocol::kSaer;
  point.config.params.d = d;
  point.config.params.c = c;
  point.config.params.store_assignment = !no_assignment;
  point.config.replications = reps;
  point.config.master_seed = seed;
  point.config.resample_graph = !share_graph;

  WorkspacePool workspaces;
  if (implicit) {
    point.implicit_factory = [&, n, delta](std::uint64_t topo_seed) {
      const std::int64_t start = tracer.now();
      const ImplicitRegularTopology topo(n, delta, topo_seed);
      implicit_run_start = tracer.now();
      tracer.record("graph.implicit_topology.ctor", start, implicit_run_start);
      return topo;
    };
  } else {
    point.factory = [&tracer, n, delta](std::uint64_t graph_seed) {
      const std::int64_t start = tracer.now();
      BipartiteGraph graph = random_regular(n, delta, graph_seed);
      tracer.record("graph.generators.random_regular", start, tracer.now(),
                    graph.num_edges());
      return graph;
    };
    point.runner = [&tracer, &workspaces](const BipartiteGraph& graph,
                                          const ProtocolParams& params,
                                          std::uint32_t replication) {
      const WorkspaceLease lease(workspaces);
      const std::int64_t start = tracer.now();
      RunResult result = run_protocol(graph, params, *lease);
      tracer.record("core.engine.run_protocol", start, tracer.now(),
                    replication);
      return result;
    };
  }

  const std::int64_t start = tracer.now();
  const SweepResult result = SweepScheduler(options).run({point});
  tracer.record("sim.sweep.run", start, tracer.now(), result.jobs);

  if (implicit) {
    // Row regeneration cost on a fixed seeded sample of clients, timed as
    // one span: a span per call would cost as much as the call.
    constexpr std::uint32_t kSample = 1u << 15;
    const ImplicitRegularTopology topo(n, delta, replication_seed(seed, 1));
    std::vector<NodeId> row;
    std::uint64_t checksum = 0;
    const std::int64_t probe = tracer.now();
    for (std::uint32_t i = 0; i < kSample; ++i) {
      topo.neighbors(static_cast<NodeId>(mix64(seed, i) % n), row);
      checksum += row.back();
    }
    tracer.record("graph.implicit_topology.neighbors", probe, tracer.now(),
                  kSample, checksum);
  }
  return result.completed_runs == reps ? 0 : 1;
}

/// cmd_serve's report row, built the same way from a snapshot.
ServeMetricsRow serve_row(const ServiceMetrics& snap, NodeId num_servers,
                          std::uint64_t elapsed_us) {
  const auto pctl = [](const IntHistogram& h, double p) -> std::uint64_t {
    return h.empty() ? 0 : static_cast<std::uint64_t>(h.percentile(p));
  };
  ServeMetricsRow row;
  row.round = snap.round;
  row.elapsed_us = elapsed_us;
  row.arrivals_per_s = elapsed_us == 0
                           ? 0.0
                           : static_cast<double>(snap.injected_clients) /
                                 (static_cast<double>(elapsed_us) * 1e-6);
  row.injected_clients = snap.injected_clients;
  row.assigned_balls = snap.assigned_balls;
  row.backlog = snap.backlog;
  row.p50_rounds = pctl(snap.latency_rounds, 50.0);
  row.p99_rounds = pctl(snap.latency_rounds, 99.0);
  row.p999_rounds = pctl(snap.latency_rounds, 99.9);
  row.p50_us = pctl(snap.latency_us, 50.0);
  row.p99_us = pctl(snap.latency_us, 99.0);
  row.p999_us = pctl(snap.latency_us, 99.9);
  row.max_load = snap.max_load;
  row.mean_load = num_servers == 0 ? 0.0
                                   : static_cast<double>(snap.assigned_balls) /
                                         static_cast<double>(num_servers);
  row.burned_servers = snap.burned_servers;
  row.failed_servers = snap.failed_servers;
  return row;
}

/// Replays cmd_serve's virtual-clock loop.  Spans: the topology build
/// (a = edges), the engine constructor, per round the injector (a =
/// arrivals), inject() and step() (a = round, b = balls settled), per
/// report snapshot() and the row's JSON emission, and the whole loop.
int replay_serve(const CliArgs& args, const std::string& dir, Tracer& tracer) {
  ProtocolParams base;
  base.d = static_cast<std::uint32_t>(args.get_uint("d", 2));
  base.c = args.get_double("c", 4.0);
  base.seed = args.get_uint("seed", 1);
  net::LoadInjectorParams inj;
  inj.curve = net::parse_arrival_curve(args.get("curve", "constant"));
  inj.rate = args.get_double("rate", 1000.0);
  inj.round_us = args.get_double("round-us", 1000.0);
  inj.seed = base.seed;
  inj.burst_factor = args.get_double("burst-factor", inj.burst_factor);
  inj.burst_on_s = args.get_double("burst-on-s", inj.burst_on_s);
  inj.burst_off_s = args.get_double("burst-off-s", inj.burst_off_s);
  const net::LoadInjector injector(inj);
  const std::uint64_t inject_rounds = args.get_uint("duration-rounds", 0);
  const double report_interval_s = args.get_double("report-interval-s", 1.0);
  const std::uint64_t report_every = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::llround(report_interval_s * 1e6 / inj.round_us)));
  const std::string topology = args.get("topology", "regular");
  const auto n = static_cast<NodeId>(args.get_uint("n", 0));
  const auto delta =
      static_cast<std::uint32_t>(args.get_uint("delta", theorem_degree(n)));
  const auto jobs = static_cast<int>(args.get_uint("jobs", 0));
  const std::uint64_t drain_cap =
      args.get_uint("drain-rounds", ProtocolParams::default_max_rounds(n));
  args.reject_unknown();
  if (inject_rounds == 0 || n == 0 || topology != "regular") {
    throw std::invalid_argument(
        "the replay needs --n, --duration-rounds and --topology regular");
  }

  std::int64_t start = tracer.now();
  const BipartiteGraph graph = random_regular(n, delta, base.seed);
  tracer.record("graph.generators.random_regular", start, tracer.now(),
                graph.num_edges());
  if (jobs != 0) set_thread_count(jobs);
  DynamicParams params;
  params.base = base;
  start = tracer.now();
  DynamicEngine engine(graph, params);
  tracer.record("core.dynamic.ctor", start, tracer.now());

  const std::string path = dir + "/replay.jsonl";
  std::ofstream metrics(path, std::ios::binary);
  if (!metrics) throw std::runtime_error("cannot write " + path);

  const auto clock_us = [&](std::uint64_t round) {
    return static_cast<std::uint64_t>(
        std::llround(static_cast<double>(round) * inj.round_us));
  };
  std::uint64_t last_report_round = 0;
  const auto report = [&](std::uint64_t now_us) {
    std::int64_t t = tracer.now();
    const ServiceMetrics snap = engine.snapshot();
    tracer.record("core.dynamic.snapshot", t, tracer.now());
    const ServeMetricsRow row = serve_row(snap, graph.num_servers(), now_us);
    last_report_round = row.round;
    t = tracer.now();
    const std::string line = serve_metrics_row_json(row);
    tracer.record("sim.run_record.serve_metrics_row_json", t, tracer.now());
    metrics << line << '\n';
    metrics.flush();
  };
  const auto step = [&](std::uint64_t round) {
    const std::int64_t t = tracer.now();
    const DynamicStepStats stats = engine.step(clock_us(round));
    tracer.record("core.dynamic.step", t, tracer.now(), round,
                  stats.settled_balls);
    if (round % report_every == 0) report(clock_us(round));
  };

  const std::int64_t loop = tracer.now();
  std::uint64_t r = 0;
  while (r < inject_rounds) {
    ++r;
    const auto round = static_cast<std::uint32_t>(r);
    std::int64_t t = tracer.now();
    const std::uint64_t count = injector.arrivals_for_round(round);
    const std::uint64_t stamp = injector.stamp_us_for_round(round);
    tracer.record("net.load_injector.round", t, tracer.now(), count);
    if (count != 0) {
      t = tracer.now();
      engine.inject(static_cast<NodeId>(count), stamp);
      tracer.record("core.dynamic.inject", t, tracer.now(), count);
    }
    step(r);
  }
  for (std::uint64_t drained = 0; !engine.drained() && drained < drain_cap;
       ++drained) {
    step(++r);
  }
  if (engine.round() != last_report_round) report(clock_us(r));
  tracer.record("cli.serve.loop", loop, tracer.now(), r);
  metrics.close();
  if (!metrics) throw std::runtime_error("cannot write " + path);
  return engine.drained() ? 0 : 1;
}

}  // namespace
}  // namespace saer

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: saer_trace sweep|serve --dir DIR [flags]\n");
    return 2;
  }
  const std::string mode = argv[1];
  try {
    const saer::CliArgs args(argc - 1, argv + 1);
    const std::string dir = args.get("dir", "");
    if (dir.empty()) throw std::invalid_argument("--dir is required");
    saer::Tracer tracer;
    int status = 0;
    if (mode == "sweep") {
      status = saer::replay_sweep(args, dir, tracer);
    } else if (mode == "serve") {
      status = saer::replay_serve(args, dir, tracer);
    } else {
      throw std::invalid_argument("unknown mode '" + mode + "'");
    }
    tracer.write(dir + "/spans.tsv");
    return status;
  } catch (const std::invalid_argument& err) {
    std::fprintf(stderr, "saer_trace %s: %s\n", mode.c_str(), err.what());
    return 2;
  } catch (const std::exception& err) {
    std::fprintf(stderr, "saer_trace %s: %s\n", mode.c_str(), err.what());
    return 1;
  }
}
