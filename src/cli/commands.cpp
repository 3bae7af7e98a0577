#include "cli/commands.hpp"

#include <algorithm>
#include <atomic>  // saer-lint: allow(no-atomic) -- SIGTERM stop flags only; see g_serve_stop / g_sweep_stop
#include <bit>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "cli/sweep_flags.hpp"
#include "core/dynamic.hpp"
#include "core/engine.hpp"
#include "core/metrics.hpp"
#include "core/subgraph.hpp"
#include "graph/degree_stats.hpp"
#include "graph/generators.hpp"
#include "graph/graph_io.hpp"
#include "graph/implicit_topology.hpp"
#include "graph/spectral.hpp"
#include "net/load_injector.hpp"
#include "net/orchestrator.hpp"
#include "sim/aggregate.hpp"
#include "sim/run_record.hpp"
#include "sim/sweep.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace saer::cli {

namespace {

/// Seedable topology factory: the single home of the topology/flag switch.
/// build_graph evaluates it once at the --seed flag; the sweep grid calls
/// it with a fresh derived seed per replication.
GraphFactory make_topology_factory(const std::string& topology, NodeId n,
                                   const CliArgs& args) {
  const NodeId delta =
      checked_node_id("delta", args.get_uint("delta", theorem_degree(n)));
  if (topology == "regular") {
    return [n, delta](std::uint64_t seed) {
      return random_regular(n, delta, seed);
    };
  }
  if (topology == "ring") {
    return [n, delta](std::uint64_t) { return ring_proximity(n, delta); };
  }
  if (topology == "grid") {
    const auto side = static_cast<NodeId>(
        std::llround(std::sqrt(static_cast<double>(n))));
    const auto radius = static_cast<std::uint32_t>(args.get_uint("radius", 3));
    return [side, radius](std::uint64_t) {
      return grid_proximity(side, radius);
    };
  }
  if (topology == "trust") {
    const auto groups =
        static_cast<std::uint32_t>(args.get_uint("groups", 4));
    const std::uint32_t capped = std::min<std::uint32_t>(delta, n / groups);
    return [n, capped, groups](std::uint64_t seed) {
      return trust_groups(n, capped, groups, seed);
    };
  }
  if (topology == "almost") {
    AlmostRegularParams p;
    p.base_delta = delta;
    p.heavy_delta = static_cast<std::uint32_t>(
        args.get_uint("heavy-delta", 2 * delta));
    p.heavy_fraction = args.get_double("heavy-fraction", 0.05);
    return [n, p](std::uint64_t seed) { return almost_regular(n, p, seed); };
  }
  if (topology == "complete") {
    return [n](std::uint64_t) { return complete_bipartite(n, n); };
  }
  if (topology == "implicit-regular" || topology == "implicit-regular-stored") {
    // Both names describe the same Delta-left-regular distribution, defined
    // by ImplicitRegularTopology's regeneration contract.  `saer sweep`
    // intercepts "implicit-regular" before this factory is ever called and
    // runs the engine's O(1)-topology-memory path; every other command (and
    // the "-stored" twin everywhere, including sweep) materializes here.
    // The twin exists so CI/tests can byte-compare an implicit sweep's
    // streams against a stored run of the identical distribution.
    return [n, delta](std::uint64_t seed) {
      return ImplicitRegularTopology(n, delta, seed).materialize();
    };
  }
  throw std::invalid_argument("unknown --topology " + topology);
}

/// Hash of the topology-shaping flags make_topology_factory bakes into its
/// closure (defaults resolved exactly as it resolves them).  Folded into
/// the grid's topology keys so the checkpoint fingerprint — which cannot
/// see inside factory closures — rejects a resume whose graph parameters
/// changed, not just one whose grid shape did.
std::uint64_t topology_param_key(const std::string& topology, NodeId n,
                                 const CliArgs& args) {
  std::uint64_t h =
      mix64(0x70b0'10c4'f1a65ULL,
            args.get_uint("delta", theorem_degree(n)));
  if (topology == "grid") h = mix64(h, args.get_uint("radius", 3));
  if (topology == "trust") h = mix64(h, args.get_uint("groups", 4));
  if (topology == "almost") {
    const auto delta = args.get_uint("delta", theorem_degree(n));
    h = mix64(h, args.get_uint("heavy-delta", 2 * delta));
    h = mix64(h, std::bit_cast<std::uint64_t>(
                     args.get_double("heavy-fraction", 0.05)));
  }
  return h;
}

/// Builds the sweep grid from sweep-style flags.  Shared by cmd_sweep and
/// cmd_orchestrate, so the supervisor fingerprints exactly the grid its
/// `saer sweep --shard i/k` subprocesses will run.  Throws
/// std::invalid_argument (exit 2 via dispatch) on a bad --protocol.
std::vector<SweepPoint> build_sweep_grid(const CliArgs& args) {
  const std::string topology = args.get("topology", "regular");
  const auto sizes = args.get_uint_list("sizes", {4096});
  const auto ds = args.get_uint_list("ds", {2});
  const auto cs = args.get_double_list("cs", {2.0});
  const std::string protocol = args.get("protocol", "saer");
  const auto reps = static_cast<std::uint32_t>(args.get_uint("reps", 5));
  const std::uint64_t seed = args.get_uint("seed", 42);
  const bool share_graph = args.get_bool("share-graph", false);
  // Memory-lean mode for large-n grids: the engine skips the O(n*d)
  // assignment vector.  Streams, aggregates, and checkpoints are
  // byte-identical either way (rows carry only aggregate observables), so
  // the flag is deliberately NOT part of the grid fingerprint -- a resume
  // may mix modes freely.
  const bool no_assignment = args.get_bool("no-assignment", false);

  std::vector<Protocol> protocols;
  if (protocol == "saer") {
    protocols = {Protocol::kSaer};
  } else if (protocol == "raes") {
    protocols = {Protocol::kRaes};
  } else if (protocol == "both") {
    protocols = {Protocol::kSaer, Protocol::kRaes};
  } else {
    throw std::invalid_argument("--protocol must be saer, raes, or both");
  }

  // "implicit-regular" runs the engine's O(1)-topology-memory path: points
  // carry an ImplicitFactory and never materialize a graph.  Every other
  // topology (including the "implicit-regular-stored" twin) goes through
  // the ordinary GraphFactory.  Point labels are topology-free, so an
  // implicit sweep's CSV/JSONL streams are byte-identical to the stored
  // twin's -- which is exactly what the CI equivalence gate cmp's.
  const bool implicit = topology == "implicit-regular";

  std::vector<SweepPoint> grid;
  for (const std::uint64_t n64 : sizes) {
    const NodeId n = checked_node_id("sizes", n64);
    GraphFactory factory;
    ImplicitFactory implicit_factory;
    if (implicit) {
      const NodeId delta =
          checked_node_id("delta", args.get_uint("delta", theorem_degree(n)));
      implicit_factory = [n, delta](std::uint64_t topo_seed) {
        return ImplicitRegularTopology(n, delta, topo_seed);
      };
    } else {
      factory = make_topology_factory(topology, n, args);
    }
    for (const std::uint64_t d : ds) {
      for (const double c : cs) {
        for (const Protocol proto : protocols) {
          SweepPoint point;
          point.label = to_string(proto) + " n=" + std::to_string(n64) +
                        " d=" + std::to_string(d) + " c=" + Table::num(c, 2);
          point.factory = factory;
          point.implicit_factory = implicit_factory;
          point.config.params.protocol = proto;
          point.config.params.d = static_cast<std::uint32_t>(d);
          point.config.params.c = c;
          point.config.params.store_assignment = !no_assignment;
          point.config.replications = reps;
          point.config.master_seed = seed;
          point.config.resample_graph = !share_graph;
          point.topology_key = topology_cache_key(
              topology, n64, topology_param_key(topology, n, args));
          grid.push_back(std::move(point));
        }
      }
    }
  }
  return grid;
}

/// Set by SIGINT/SIGTERM during `saer sweep`: the scheduler stops picking
/// up pending runs, finishes the ones in flight, flushes the checkpoint,
/// and exits 0 -- the graceful-drain contract `saer orchestrate` relies on
/// when it forwards a stop signal to its shard subprocesses.  Atomic for
/// the same reason as g_serve_stop below.
// saer-lint: allow(no-atomic) -- cross-thread signal flag; results are unaffected by when it is observed
std::atomic<int> g_sweep_stop{0};

void sweep_stop_handler(int) {
  g_sweep_stop.store(1, std::memory_order_relaxed);
}

/// Renders per-point aggregates the same way for `sweep` and `aggregate`.
void print_aggregate_table(const std::vector<PointAggregate>& points) {
  Table t({"point", "label", "ok", "fail", "rounds", "ci95", "work/ball",
           "max_load", "burned%"});
  for (const PointAggregate& point : points) {
    const Aggregate& agg = point.aggregate;
    t.add_row({Table::num(std::uint64_t{point.point}), point.label,
               Table::num(std::uint64_t{agg.completed}),
               Table::num(std::uint64_t{agg.failed}),
               Table::num(agg.rounds.mean(), 2),
               Table::num(agg.rounds.ci95(), 2),
               Table::num(agg.work_per_ball.mean(), 2),
               Table::num(agg.max_load.mean(), 2),
               Table::num(100.0 * agg.burned_fraction.mean(), 2)});
  }
  std::printf("%s", t.render().c_str());
}

}  // namespace

BipartiteGraph build_graph(const CliArgs& args) {
  const std::string topology = args.get("topology", "regular");
  const NodeId n = checked_node_id("n", args.get_uint("n", 4096));
  const std::uint64_t seed = args.get_uint("seed", 1);
  return make_topology_factory(topology, n, args)(seed);
}

BipartiteGraph resolve_graph(const CliArgs& args) {
  const std::string path = args.get("graph", "");
  if (!path.empty()) return load_graph(path);
  return build_graph(args);
}

int cmd_generate(const CliArgs& args) {
  const std::string out = args.get("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "generate: --out <path> is required\n");
    return 2;
  }
  const BipartiteGraph g = build_graph(args);
  args.reject_unknown();
  save_graph(out, g);
  std::printf("wrote %s\n%s\n", out.c_str(), describe(g).c_str());
  return 0;
}

int cmd_stats(const CliArgs& args) {
  const BipartiteGraph g = resolve_graph(args);
  args.reject_unknown();
  const DegreeStats s = degree_stats(g);
  std::printf("%s\n", describe(g).c_str());
  const double log2n = std::log2(static_cast<double>(g.num_clients()));
  std::printf("theorem check: Delta_min(C)=%u vs log2^2(n)=%.1f -> %s; "
              "rho=%.3f\n",
              s.client_min, log2n * log2n,
              satisfies_theorem1(g, 1.0, 4.0) ? "covered (eta=1, rho<=4)"
                                              : "outside hypothesis",
              s.rho);
  return 0;
}

int cmd_run(const CliArgs& args) {
  const BipartiteGraph g = resolve_graph(args);
  ProtocolParams params;
  const std::string protocol = args.get("protocol", "saer");
  if (protocol == "saer") {
    params.protocol = Protocol::kSaer;
  } else if (protocol == "raes") {
    params.protocol = Protocol::kRaes;
  } else {
    std::fprintf(stderr, "run: --protocol must be saer or raes\n");
    return 2;
  }
  params.d = static_cast<std::uint32_t>(args.get_uint("d", 2));
  params.c = args.get_double("c", 4.0);
  params.seed = args.get_uint("seed", 1);
  const bool trace = args.get_bool("trace", false);
  params.deep_trace = trace;
  args.reject_unknown();

  const RunResult res = run_protocol(g, params);
  check_result(g, params, res);
  std::printf("%s: %s in %u rounds; work %llu messages (%.2f/ball); "
              "max load %llu (cap %llu); burned %llu\n",
              to_string(params.protocol).c_str(),
              res.completed ? "completed" : "DID NOT COMPLETE", res.rounds,
              static_cast<unsigned long long>(res.work_messages),
              res.work_per_ball(),
              static_cast<unsigned long long>(res.max_load),
              static_cast<unsigned long long>(params.capacity()),
              static_cast<unsigned long long>(res.burned_servers));
  if (trace) {
    Table t({"round", "alive", "accepted", "burned", "S_t", "K_t"});
    for (const RoundStats& r : res.trace) {
      t.add_row({Table::num(std::uint64_t{r.round}), Table::num(r.alive_begin),
                 Table::num(r.accepted), Table::num(r.burned_total),
                 Table::num(r.s_max, 4), Table::num(r.k_max, 4)});
    }
    std::printf("%s", t.render().c_str());
  }
  return res.completed ? 0 : 1;
}

int cmd_expander(const CliArgs& args) {
  const BipartiteGraph g = resolve_graph(args);
  ProtocolParams params;
  // d >= 3 by default: with d = 1 the extracted subgraph is a forest of
  // stars and cannot expand; the expander construction needs a constant
  // d > 1 (Becchetti et al.).
  params.d = static_cast<std::uint32_t>(args.get_uint("d", 3));
  params.c = args.get_double("c", 4.0);
  params.seed = args.get_uint("seed", 1);
  args.reject_unknown();
  const RunResult res = run_protocol(g, params);
  if (!res.completed) {
    std::fprintf(stderr, "expander: protocol did not complete; raise --c\n");
    return 1;
  }
  const BipartiteGraph sub = assignment_subgraph(g, res);
  const SubgraphStats stats = subgraph_stats(g, sub);
  const SpectralEstimate base = estimate_lambda2(g);
  const SpectralEstimate extracted = estimate_lambda2(sub);
  std::printf("input:     %s\n", describe(g).c_str());
  std::printf("extracted: %s\n", describe(sub).c_str());
  std::printf("degrees: client <= %u (= d), server <= %u (<= c*d = %llu); "
              "edges kept %.2f%%\n",
              stats.client_degree_max, stats.server_degree_max,
              static_cast<unsigned long long>(params.capacity()),
              100.0 * stats.edge_fraction);
  std::printf("projection-walk lambda2: input %.4f, extracted %.4f "
              "(gap %.4f -> %.4f)\n",
              base.lambda2, extracted.lambda2, base.gap(), extracted.gap());
  return 0;
}

int cmd_sweep(const CliArgs& args) {
  const bool quiet = args.get_bool("quiet", false);
  const std::vector<SweepPoint> grid = build_sweep_grid(args);

  SweepOptions options = parse_sweep_flags(args);
  options.stop_requested = [] {
    return g_sweep_stop.load(std::memory_order_relaxed) != 0;
  };
  const std::string agg_csv = args.get("agg-csv", "");
  args.reject_unknown();
  if (!agg_csv.empty() && options.shard_count > 1) {
    // A shard's aggregate CSV would carry the canonical full-grid schema
    // with only 1/k of the replications folded in -- a silent footgun for
    // downstream plotting.
    std::fprintf(stderr,
                 "sweep: --agg-csv is not available with --shard (it would "
                 "aggregate only this shard's runs); fold all shards with "
                 "`saer aggregate <shard jsonl files> --csv %s` instead\n",
                 agg_csv.c_str());
    return 2;
  }

  // Graceful drain on SIGINT/SIGTERM: in-flight runs finish and the
  // checkpoint stays durable, so a rerun of the identical command resumes
  // exactly where this one stopped.  Exit 0 is the contract the
  // orchestrator's stop-signal forwarding depends on.
  g_sweep_stop.store(0, std::memory_order_relaxed);
  std::signal(SIGINT, sweep_stop_handler);
  std::signal(SIGTERM, sweep_stop_handler);
  const SweepResult result = SweepScheduler(options).run(grid);
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);

  if (result.interrupted) {
    std::printf("sweep: interrupted after %zu/%zu runs in %.3f s%s\n",
                result.completed_runs, result.total_runs, result.wall_seconds,
                options.checkpoint_path.empty()
                    ? ""
                    : "; rerun the identical command to resume from the "
                      "checkpoint");
    return 0;
  }

  const std::vector<PointAggregate> aggregates =
      point_aggregates(grid, result);
  if (!agg_csv.empty()) {
    CsvWriter csv(agg_csv);
    write_aggregate_csv(csv, aggregates);
  }
  if (!quiet) print_aggregate_table(aggregates);
  std::printf("sweep: %zu runs over %zu points in %.3f s (%u jobs%s",
              result.runs.size(), grid.size(), result.wall_seconds,
              result.jobs, shard_summary(options, result.total_runs).c_str());
  if (result.resumed_runs) {
    std::printf(", %zu resumed from checkpoint", result.resumed_runs);
  }
  std::printf(")\n");
  if (!quiet) std::printf("%s", shard_note(options).c_str());
  return 0;
}

int cmd_aggregate(const CliArgs& args) {
  std::vector<std::string> inputs = args.positional();
  for (std::string& extra : args.get_list("inputs", {})) {
    inputs.push_back(std::move(extra));
  }
  if (inputs.empty()) {
    std::fprintf(stderr,
                 "aggregate: no inputs (pass JSONL paths, or --inputs "
                 "a.jsonl,b.jsonl)\n");
    return 2;
  }
  JsonlReadOptions read_options;
  read_options.tolerate_truncated_tail = args.get_bool("tolerant", false);
  const std::string csv_path = args.get("csv", "");
  const bool quiet = args.get_bool("quiet", false);
  args.reject_unknown();

  const AggregateSummary summary = aggregate_jsonl_files(inputs, read_options);
  if (!csv_path.empty()) {
    CsvWriter csv(csv_path);
    write_aggregate_csv(csv, summary.points);
  }
  if (!quiet) print_aggregate_table(summary.points);
  std::printf(
      "aggregate: %zu rows from %zu input(s) -> %zu points (%zu duplicates "
      "dropped, %zu truncated tails skipped)\n",
      summary.rows_read, inputs.size(), summary.points.size(),
      summary.duplicates, summary.truncated_tails);
  return 0;
}

namespace {

/// Set by SIGINT/SIGTERM: the serve loop stops injecting, drains, writes
/// the final report, and exits 0 (graceful shutdown contract).  Atomic,
/// not sig_atomic_t: the signal may be delivered on (or raised from) a
/// different thread than the serve loop, which is a data race on a plain
/// global (caught by TSan).  A lock-free atomic store is async-signal-
/// safe; the flag gates shutdown only and never touches a result path.
// saer-lint: allow(no-atomic) -- cross-thread signal flag; results are unaffected by when it is observed
std::atomic<int> g_serve_stop{0};

void serve_stop_handler(int) {
  g_serve_stop.store(1, std::memory_order_relaxed);
}

/// Percentile of a histogram that may still be empty (no settled balls in
/// the first report intervals of a heavily loaded start).
std::uint64_t pctl(const IntHistogram& h, double p) {
  return h.empty() ? 0 : static_cast<std::uint64_t>(h.percentile(p));
}

ServeMetricsRow serve_row(const DynamicEngine& engine, NodeId num_servers,
                          std::uint64_t elapsed_us) {
  const ServiceMetrics snap = engine.snapshot();
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

}  // namespace

int cmd_serve(const CliArgs& args) {
  ProtocolParams base;
  const std::string protocol = args.get("protocol", "saer");
  if (protocol == "saer") {
    base.protocol = Protocol::kSaer;
  } else if (protocol == "raes") {
    base.protocol = Protocol::kRaes;
  } else {
    std::fprintf(stderr, "serve: --protocol must be saer or raes\n");
    return 2;
  }
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

  // Exactly one clock: --duration-s paces rounds against the wall clock;
  // --duration-rounds runs on the virtual clock (elapsed = round *
  // round-us) as fast as the machine allows, which makes the metrics JSONL
  // byte-identical across runs.
  const std::uint64_t duration_rounds = args.get_uint("duration-rounds", 0);
  const double duration_s = args.get_double("duration-s", 0.0);
  if ((duration_rounds == 0) == (duration_s <= 0.0)) {
    std::fprintf(stderr,
                 "serve: pass exactly one of --duration-s or "
                 "--duration-rounds\n");
    return 2;
  }
  const bool virtual_time = duration_rounds != 0;
  const std::uint64_t inject_rounds =
      virtual_time ? duration_rounds
                   : static_cast<std::uint64_t>(
                         std::ceil(duration_s * 1e6 / inj.round_us));

  DynamicParams dparams;
  dparams.base = base;
  dparams.server_failure_rate = args.get_double("failure-rate", 0.0);
  dparams.latency_bucket_us = args.get_int("latency-bucket-us", 1);

  const double report_interval_s = args.get_double("report-interval-s", 1.0);
  const std::uint64_t report_every = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::llround(report_interval_s * 1e6 / inj.round_us)));
  const bool quiet = args.get_bool("quiet", false);

  SweepFlagNames names;
  names.csv.clear();
  names.jsonl = "metrics-jsonl";
  const SweepOptions options = parse_sweep_flags(args, names);
  if (!options.checkpoint_path.empty() || options.shard_count > 1) {
    std::fprintf(stderr,
                 "serve: --checkpoint and --shard are sweep-only flags\n");
    return 2;
  }

  // Topology: --graph wins; otherwise auto-size --n to cover the expected
  // arrival volume (plus margin) so the service never runs out of client
  // ids mid-run.
  const std::string graph_path = args.get("graph", "");
  const double horizon_s =
      static_cast<double>(inject_rounds) * inj.round_us * 1e-6;
  const BipartiteGraph g = [&]() -> BipartiteGraph {
    if (!graph_path.empty()) return load_graph(graph_path);
    const std::string topology = args.get("topology", "regular");
    const NodeId n = checked_node_id(
        "n", args.get_uint("n", std::max<std::uint64_t>(
                                    injector.expected_total(horizon_s), 64)));
    return make_topology_factory(topology, n, args)(base.seed);
  }();
  const std::uint64_t drain_cap = args.get_uint(
      "drain-rounds", ProtocolParams::default_max_rounds(g.num_clients()));
  args.reject_unknown();

  if (options.jobs != 0) set_thread_count(static_cast<int>(options.jobs));

  std::FILE* metrics = nullptr;
  if (!options.jsonl_path.empty()) {
    metrics = std::fopen(options.jsonl_path.c_str(), "wb");
    if (!metrics) {
      // Runtime failure, not a usage error: the flags parsed fine, the
      // environment refused the path.
      std::fprintf(stderr, "serve: cannot open %s\n",
                   options.jsonl_path.c_str());
      return 1;
    }
  }

  DynamicEngine engine(g, dparams);
  g_serve_stop.store(0, std::memory_order_relaxed);
  std::signal(SIGINT, serve_stop_handler);
  std::signal(SIGTERM, serve_stop_handler);

  const auto start = std::chrono::steady_clock::now();
  const auto elapsed_us_real = [&]() -> std::uint64_t {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
  };
  const auto clock_us = [&](std::uint64_t round) -> std::uint64_t {
    return virtual_time ? static_cast<std::uint64_t>(std::llround(
                              static_cast<double>(round) * inj.round_us))
                        : elapsed_us_real();
  };

  std::uint64_t last_report_round = 0;
  const auto report = [&](std::uint64_t now_us) {
    const ServeMetricsRow row = serve_row(engine, g.num_servers(), now_us);
    last_report_round = row.round;
    const std::string line = serve_metrics_row_json(row);
    if (!quiet) std::printf("%s\n", line.c_str());
    if (metrics) {
      std::fprintf(metrics, "%s\n", line.c_str());
      std::fflush(metrics);
    }
  };

  if (!quiet) {
    std::printf(
        "serve: %s on %s, curve %s at %.0f clients/s, round %.0f us, "
        "%llu inject rounds (%s clock)\n",
        to_string(base.protocol).c_str(), describe(g).c_str(),
        net::arrival_curve_name(inj.curve), inj.rate, inj.round_us,
        static_cast<unsigned long long>(inject_rounds),
        virtual_time ? "virtual" : "wall");
  }

  std::uint64_t r = 0;
  bool interrupted = false;
  while (r < inject_rounds) {
    if (g_serve_stop.load(std::memory_order_relaxed)) {
      interrupted = true;
      break;
    }
    ++r;
    if (!virtual_time) {
      // Open-loop pacing: wait for round r's scheduled start, never for
      // the backlog.  Stamps below use scheduled time, so settle latency
      // includes any injector lag (coordinated omission).
      std::this_thread::sleep_until(
          start + std::chrono::microseconds(injector.stamp_us_for_round(
                      static_cast<std::uint32_t>(r))));
    }
    const std::uint64_t count =
        injector.arrivals_for_round(static_cast<std::uint32_t>(r));
    if (count != 0) {
      engine.inject(static_cast<NodeId>(count),
                    injector.stamp_us_for_round(static_cast<std::uint32_t>(r)));
    }
    engine.step(clock_us(r));
    if (r % report_every == 0) report(clock_us(r));
  }

  // Graceful drain: injection has stopped (duration reached or signal);
  // keep stepping until every activated ball settles or the cap is hit.
  std::uint64_t drain_rounds = 0;
  while (!engine.drained() && drain_rounds < drain_cap) {
    ++r;
    ++drain_rounds;
    engine.step(clock_us(r));
    if (r % report_every == 0) report(clock_us(r));
  }
  if (engine.round() != last_report_round) report(clock_us(r));

  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  if (metrics) std::fclose(metrics);

  const ServiceMetrics snap = engine.snapshot();
  if (!quiet) {
    std::printf(
        "serve: %s after %u rounds: %llu clients in, %llu balls assigned, "
        "backlog %llu, max load %llu, burned %llu, failed %llu\n",
        interrupted ? "interrupted, drained"
                    : (engine.drained() ? "drained" : "DRAIN CAP HIT"),
        snap.round, static_cast<unsigned long long>(snap.injected_clients),
        static_cast<unsigned long long>(snap.assigned_balls),
        static_cast<unsigned long long>(snap.backlog),
        static_cast<unsigned long long>(snap.max_load),
        static_cast<unsigned long long>(snap.burned_servers),
        static_cast<unsigned long long>(snap.failed_servers));
  }
  // A signal-initiated shutdown that drained cleanly is a success.
  return engine.drained() ? 0 : 1;
}

namespace {

void orchestrate_stop_handler(int sig) {
  net::Orchestrator::request_stop(sig);
}

}  // namespace

int cmd_orchestrate(const CliArgs& args) {
  namespace fs = std::filesystem;
  const std::string dir = args.get("dir", "");
  if (dir.empty()) {
    std::fprintf(stderr, "orchestrate: --dir <path> is required\n");
    return 2;
  }
  const auto shard_count =
      static_cast<unsigned>(args.get_uint("shards", 3));
  if (shard_count == 0) {
    std::fprintf(stderr, "orchestrate: --shards must be >= 1\n");
    return 2;
  }

  // Build the exact grid the shard subprocesses will build from the same
  // flags: the final phase verifies every shard checkpoint against this
  // grid's fingerprint before trusting the shard streams.
  const std::vector<SweepPoint> grid = build_sweep_grid(args);

  net::OrchestrateOptions options;
  options.retry.max_attempts =
      static_cast<std::uint32_t>(args.get_uint("retry-max", 5));
  options.retry.base_delay_ms = args.get_uint("backoff-ms", 250);
  options.retry.max_delay_ms = args.get_uint("backoff-max-ms", 8000);
  options.retry.jitter = args.get_double("backoff-jitter", 0.25);
  options.retry.seed = args.get_uint("retry-seed", 42);
  options.stall_timeout_s = args.get_double("stall-timeout-s", 30.0);
  options.poll_interval_ms = args.get_double("poll-interval-ms", 100.0);
  options.chaos_rate = args.get_double("chaos", 0.0);
  options.chaos_seed = args.get_uint("chaos-seed", 1);
  options.drain_grace_s = args.get_double("drain-grace-s", 10.0);
  options.event_log_path = args.get("events", dir + "/events.jsonl");
  const bool quiet = args.get_bool("quiet", false);
  options.echo_events = !quiet;

  const std::string agg_csv = args.get("agg-csv", "");
  const std::uint64_t shard_jobs = args.get_uint("shard-jobs", 1);
  const std::uint64_t ckpt_interval = args.get_uint("checkpoint-interval", 1);
  std::string bin = args.get("saer-bin", "");
  if (bin.empty()) {
    std::error_code ec;
    const fs::path self = fs::read_symlink("/proc/self/exe", ec);
    bin = ec ? std::string("saer") : self.string();
  }

  // Grid-shaping flags forwarded verbatim so every shard rebuilds the
  // identical grid (and therefore the identical checkpoint fingerprint).
  std::vector<std::string> passthrough;
  for (const char* flag :
       {"topology", "sizes", "ds", "cs", "protocol", "reps", "seed", "delta",
        "radius", "groups", "heavy-delta", "heavy-fraction"}) {
    const std::string value = args.get(flag, "");
    if (!value.empty()) {
      passthrough.push_back(std::string("--") + flag);
      passthrough.push_back(value);
    }
  }
  for (const char* flag : {"share-graph", "no-assignment"}) {
    if (args.get_bool(flag, false)) {
      passthrough.push_back(std::string("--") + flag);
    }
  }
  args.reject_unknown();

  fs::create_directories(dir);
  const auto shard_path = [&dir](unsigned i, const char* ext) {
    return dir + "/shard-" + std::to_string(i) + ext;
  };
  for (unsigned i = 0; i < shard_count; ++i) {
    net::ShardProcess shard;
    shard.argv = {bin, "sweep"};
    shard.argv.insert(shard.argv.end(), passthrough.begin(),
                      passthrough.end());
    const std::vector<std::string> tail = {
        "--shard",    std::to_string(i) + "/" + std::to_string(shard_count),
        "--jsonl",    shard_path(i, ".jsonl"),
        "--checkpoint", shard_path(i, ".ckpt"),
        "--checkpoint-interval", std::to_string(ckpt_interval),
        "--jobs",     std::to_string(shard_jobs),
        "--quiet"};
    shard.argv.insert(shard.argv.end(), tail.begin(), tail.end());
    shard.heartbeat_path = shard_path(i, ".ckpt");
    shard.log_path = shard_path(i, ".log");
    options.shards.push_back(std::move(shard));
  }

  if (!quiet) {
    std::printf("orchestrate: %u shards under %s (retry budget %u, "
                "backoff %llu..%llu ms, stall timeout %.1f s%s)\n",
                shard_count, dir.c_str(), options.retry.max_attempts,
                static_cast<unsigned long long>(options.retry.base_delay_ms),
                static_cast<unsigned long long>(options.retry.max_delay_ms),
                options.stall_timeout_s,
                options.chaos_rate > 0.0 ? ", chaos enabled" : "");
  }

  net::Orchestrator::clear_stop();
  std::signal(SIGINT, orchestrate_stop_handler);
  std::signal(SIGTERM, orchestrate_stop_handler);
  net::Orchestrator orchestrator(std::move(options));
  const net::OrchestrateResult result = orchestrator.run();
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);

  if (result.interrupted) {
    std::printf("orchestrate: interrupted after %.3f s; %s\n",
                result.wall_seconds,
                result.drained_clean
                    ? "all shards drained cleanly (checkpoints resumable; "
                      "rerun the identical command to continue)"
                    : "drain incomplete");
    std::fputs(result.report().c_str(), stdout);
    return result.drained_clean ? 0 : 1;
  }
  if (!result.all_succeeded) {
    std::fputs(result.report().c_str(), stderr);
    std::fprintf(stderr, "orchestrate: job FAILED after %.3f s\n",
                 result.wall_seconds);
    return 1;
  }

  // Final phase: every shard exited 0 -- verify each checkpoint belongs to
  // this grid and covers its whole slice, then fold the shard streams.
  const std::uint64_t grid_fp = grid_fingerprint(grid);
  std::size_t total_runs = 0;
  for (const SweepPoint& point : grid) total_runs += point.config.replications;
  std::vector<std::string> shard_jsonls;
  for (unsigned i = 0; i < shard_count; ++i) {
    const ShardSpec spec{i, shard_count};
    const CheckpointInfo info = read_checkpoint_info(shard_path(i, ".ckpt"));
    const std::uint64_t want_fp = shard_checkpoint_fingerprint(grid_fp, spec);
    const std::size_t want_runs = shard_run_ranks(total_runs, spec).size();
    if (!info.header_ok || info.fingerprint != want_fp ||
        info.completed != want_runs) {
      std::fprintf(stderr,
                   "orchestrate: shard %u checkpoint fails verification "
                   "(header %s, fingerprint %llx vs %llx, %zu/%zu runs)\n",
                   i, info.header_ok ? "ok" : "BAD",
                   static_cast<unsigned long long>(info.fingerprint),
                   static_cast<unsigned long long>(want_fp), info.completed,
                   want_runs);
      return 1;
    }
    shard_jsonls.push_back(shard_path(i, ".jsonl"));
  }
  const AggregateSummary summary =
      aggregate_jsonl_files(shard_jsonls, JsonlReadOptions{});
  if (summary.rows_read != total_runs || summary.duplicates != 0 ||
      summary.truncated_tails != 0) {
    std::fprintf(stderr,
                 "orchestrate: shard streams fail verification (%zu/%zu "
                 "rows, %zu duplicates, %zu truncated tails)\n",
                 summary.rows_read, total_runs, summary.duplicates,
                 summary.truncated_tails);
    return 1;
  }
  if (!agg_csv.empty()) {
    CsvWriter csv(agg_csv);
    write_aggregate_csv(csv, summary.points);
  }
  if (!quiet) print_aggregate_table(summary.points);
  std::printf("orchestrate: %u shards, %zu runs, %u chaos kills absorbed "
              "in %.3f s\n",
              shard_count, summary.rows_read, result.total_chaos_kills,
              result.wall_seconds);
  return 0;
}

std::string usage() {
  return "usage: saer <generate|stats|run|expander|sweep|aggregate|"
         "orchestrate|serve> [flags]\n"
         "  generate  --topology T --n N --out PATH [--delta D] [--seed S]\n"
         "  stats     --graph PATH | --topology T --n N\n"
         "  run       [--graph PATH | --topology T --n N] [--protocol saer|raes]\n"
         "            [--d D] [--c C] [--seed S] [--trace]\n"
         "  expander  [--graph PATH | --topology T --n N] [--d D] [--c C]\n"
         "  sweep     --topology T --sizes N1,N2 [--ds D1,D2] [--cs C1,C2]\n"
         "            [--protocol saer|raes|both] [--reps R] [--seed S]\n"
         "            [--jobs N] [--csv PATH] [--jsonl PATH] [--share-graph]\n"
         "            [--checkpoint PATH] [--checkpoint-interval K]\n"
         "            [--shard I/K] [--agg-csv PATH] [--no-assignment]\n"
         "            [--quiet]\n"
         "            (--no-assignment drops the per-ball assignment vector\n"
         "             -- identical CSV/JSONL/aggregate bytes in O(servers)\n"
         "             memory; use it for multi-million-node grids)\n"
         "            (--checkpoint makes the sweep resumable: rerun the\n"
         "             identical command to continue after an interruption)\n"
         "            (--shard I/K runs slice I of K: launch K processes\n"
         "             with identical flags, shard-specific stream paths,\n"
         "             and I = 0..K-1, then fold the shards' JSONL streams\n"
         "             with `saer aggregate` -- output is bit-identical to\n"
         "             one process running the whole grid; requires --jsonl,\n"
         "             and --agg-csv is refused per shard)\n"
         "  aggregate RUNS.jsonl [MORE.jsonl ...] | --inputs A.jsonl,B.jsonl\n"
         "            [--csv PATH] [--tolerant] [--quiet]\n"
         "  orchestrate --dir DIR [--shards K] [sweep grid flags]\n"
         "            [--agg-csv PATH] [--events PATH] [--shard-jobs N]\n"
         "            [--checkpoint-interval K] [--retry-max A]\n"
         "            [--backoff-ms B] [--backoff-max-ms M]\n"
         "            [--backoff-jitter J] [--retry-seed S]\n"
         "            [--stall-timeout-s T] [--poll-interval-ms P]\n"
         "            [--chaos R] [--chaos-seed S] [--drain-grace-s G]\n"
         "            [--saer-bin PATH] [--quiet]\n"
         "            (fault-tolerant supervisor: forks K `saer sweep\n"
         "             --shard i/K --checkpoint ...` subprocesses, restarts\n"
         "             crashed or stalled shards from their checkpoints\n"
         "             under capped exponential backoff, and folds the\n"
         "             shard streams once all succeed -- aggregate output\n"
         "             is bit-identical to one uninterrupted process;\n"
         "             --chaos R SIGKILLs live shards at rate R/shard/s on\n"
         "             a deterministic schedule as a recovery self-test;\n"
         "             SIGINT/SIGTERM are forwarded to the shards, which\n"
         "             drain gracefully into resumable checkpoints; every\n"
         "             lifecycle event is logged to DIR/events.jsonl)\n"
         "  serve     --rate R (--duration-s T | --duration-rounds N)\n"
         "            [--curve constant|poisson|bursty] [--round-us U]\n"
         "            [--burst-factor F --burst-on-s A --burst-off-s B]\n"
         "            [--graph PATH | --topology T [--n N]]\n"
         "            [--protocol saer|raes] [--d D] [--c C] [--seed S]\n"
         "            [--failure-rate P] [--report-interval-s I]\n"
         "            [--metrics-jsonl PATH] [--latency-bucket-us W]\n"
         "            [--drain-rounds K] [--jobs N] [--quiet]\n"
         "            (long-lived service: injects R clients/s, reports a\n"
         "             metrics JSONL row every I seconds -- p50/p99/p999\n"
         "             settle latency in rounds and microseconds, loads,\n"
         "             backlog -- and drains gracefully on SIGINT/SIGTERM;\n"
         "             --duration-rounds runs on a virtual clock, making\n"
         "             the metrics stream byte-identical across runs;\n"
         "             --n defaults to the expected arrival volume)\n"
         "topologies: regular ring grid trust almost complete\n"
         "            implicit-regular implicit-regular-stored\n"
         "            (implicit-regular regenerates neighborhoods from the\n"
         "             seed instead of storing edges: `sweep` runs it in\n"
         "             O(1) topology memory -- combine with --no-assignment\n"
         "             for n >= 2^26 -- and other commands materialize it;\n"
         "             implicit-regular-stored always materializes the\n"
         "             identical distribution, for byte-level comparison)\n";
}

int dispatch(int argc, const char* const* argv) {
  if (argc < 2) {
    std::fprintf(stderr, "%s", usage().c_str());
    return 2;
  }
  const std::string command = argv[1];
  const CliArgs args(argc - 1, argv + 1);
  try {
    if (command == "generate") return cmd_generate(args);
    if (command == "stats") return cmd_stats(args);
    if (command == "run") return cmd_run(args);
    if (command == "expander") return cmd_expander(args);
    if (command == "sweep") return cmd_sweep(args);
    if (command == "aggregate") return cmd_aggregate(args);
    if (command == "orchestrate") return cmd_orchestrate(args);
    if (command == "serve") return cmd_serve(args);
    std::fprintf(stderr, "unknown command '%s'\n%s", command.c_str(),
                 usage().c_str());
    return 2;
  } catch (const std::invalid_argument& err) {
    // Usage errors (unknown flags, malformed values, impossible
    // combinations) exit 2; anything that goes wrong while executing a
    // well-formed command (missing files, I/O failures) exits 1.
    std::fprintf(stderr, "saer %s: %s\n", command.c_str(), err.what());
    return 2;
  } catch (const std::exception& err) {
    std::fprintf(stderr, "saer %s: %s\n", command.c_str(), err.what());
    return 1;
  }
}

}  // namespace saer::cli
