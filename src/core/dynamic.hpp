#pragma once
// Dynamic extension (Section 4, future work): clients arrive online and
// servers may fail permanently (topology churn).  The protocol logic is
// unchanged -- arrivals simply start submitting in their activation round,
// and a failed server behaves like a burned one.  The conjecture in the
// paper is that SAER reaches a metastable regime with good performance; the
// fig9_dynamic bench measures exactly that (bounded load, stable per-cohort
// assignment latency).
//
// Two entry points share one engine:
//
//  * DynamicEngine -- the incremental API.  Construct on a graph, feed it
//    arrival batches with inject(), advance one protocol round at a time
//    with step(), and read live ServiceMetrics with snapshot().  This is
//    what `saer serve` drives for indefinitely long, externally paced
//    runs (see cli/commands.cpp and net/load_injector.hpp).
//
//  * run_dynamic() -- the original one-shot batch interface, now a thin
//    wrapper that replays its fixed arrival schedule through the engine.
//    Its DynamicResult (every scalar and both per-round series) is
//    bit-identical to the pre-engine implementation; the golden tests in
//    tests/test_dynamic_golden.cpp pin that against an embedded copy of
//    the monolithic loop.
//
// All randomness stays counter-based -- ball draws at (ball, round),
// failure coins at (server, round) -- so stepping is schedule-independent
// and independent of how arrivals are batched into inject() calls.

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "core/protocol.hpp"
#include "core/workspace.hpp"
#include "graph/bipartite_graph.hpp"
#include "graph/implicit_topology.hpp"
#include "util/histogram.hpp"
#include "util/rng.hpp"

namespace saer {

struct DynamicParams {
  ProtocolParams base;
  /// Clients activated per round, in id order; 0 means all at round 1.
  /// Consumed by run_dynamic() only -- DynamicEngine arrivals come from
  /// inject().
  std::uint32_t arrivals_per_round = 0;
  /// Extra rounds to run after the last arrival (drain window);
  /// 0 selects default_max_rounds(n).  run_dynamic() only.
  std::uint32_t drain_rounds = 0;
  /// Per-round probability that a healthy server fails permanently.
  double server_failure_rate = 0.0;
  /// Bucket width of the wall-clock settle-latency histogram kept by
  /// DynamicEngine (microseconds per bucket); 1 keeps exact counts.
  std::int64_t latency_bucket_us = 1;
};

struct DynamicResult {
  bool completed = false;         ///< all balls of all cohorts assigned
  std::uint32_t rounds = 0;
  std::uint64_t total_balls = 0;
  std::uint64_t unassigned_balls = 0;
  std::uint64_t max_load = 0;
  std::uint64_t burned_servers = 0;
  std::uint64_t failed_servers = 0;
  std::uint64_t work_messages = 0;
  /// Assignment latency (rounds from activation to acceptance) percentiles
  /// over assigned balls.
  double latency_mean = 0;
  std::uint32_t latency_p50 = 0;
  std::uint32_t latency_p99 = 0;
  std::uint32_t latency_max = 0;
  /// Max load observed at the end of each round (metastability series).
  std::vector<std::uint64_t> max_load_series;
  /// Alive (activated but unassigned) balls per round.
  std::vector<std::uint64_t> backlog_series;
};

/// Live service observables at one instant (DynamicEngine::snapshot).
struct ServiceMetrics {
  std::uint32_t round = 0;
  std::uint64_t injected_clients = 0;  ///< activated so far
  std::uint64_t injected_balls = 0;    ///< injected_clients * d
  std::uint64_t assigned_balls = 0;
  std::uint64_t backlog = 0;           ///< activated but unassigned balls
  std::uint64_t work_messages = 0;
  std::uint64_t max_load = 0;
  double mean_load = 0;                ///< assigned_balls / num_servers
  std::uint64_t burned_servers = 0;
  std::uint64_t failed_servers = 0;
  /// Settle latency of assigned balls, in rounds from activation.
  IntHistogram latency_rounds;
  /// Settle latency in microseconds (now_us at settle minus the inject
  /// stamp), binned by DynamicParams::latency_bucket_us.
  IntHistogram latency_us;
};

/// One round's summary, returned by DynamicEngine::step.
struct DynamicStepStats {
  std::uint32_t round = 0;
  std::uint64_t activated_balls = 0;  ///< balls entering this round
  std::uint64_t settled_balls = 0;    ///< balls accepted this round
  std::uint64_t backlog = 0;          ///< alive balls after the round
  std::uint64_t max_load = 0;         ///< running max accepted load
};

/// Incremental dynamic-process engine.  Clients activate in id order: each
/// inject() queues the next `count` client ids, which enter the protocol
/// at the start of the next step().  step() runs exactly one round:
/// activation, churn coins, then one round of the batch engine's kernel
/// (core/round.hpp) -- phase 1 submissions, phase 2 verdicts -- and
/// settlement bookkeeping.  Stepping past the round in which everything
/// settled is valid (churn continues, nothing else happens), which is what
/// a quiescent service does between arrival bursts.
///
/// A step costs O(alive + touched servers): the kernel visits only the
/// servers this round's balls reached, and max load, burned and failed
/// servers are running totals.  The one O(num_servers) pass is the churn
/// coin flip, and it runs only with a failure rate above 0.
class DynamicEngine {
 public:
  /// Validates parameters and captures the graph by reference (it must
  /// outlive the engine).  Throws std::invalid_argument on a failure rate
  /// outside [0,1) or a client with no admissible server.
  DynamicEngine(const BipartiteGraph& graph, const DynamicParams& params);

  /// Implicit-topology service: identical protocol semantics with no edge
  /// arrays -- each step regenerates the neighborhoods it samples from
  /// (graph_seed, client).  The topology descriptor is copied (it is a few
  /// words), so unlike the stored overload there is no lifetime coupling.
  /// Step-for-step bit-identical to an engine on topology.materialize().
  DynamicEngine(const ImplicitRegularTopology& topology,
                const DynamicParams& params);

  /// Queues the next `count` clients (in id order) for activation at the
  /// start of the next step().  `stamp_us` tags the batch for wall-clock
  /// settle latency (pass the scheduled arrival time so open-loop pacing
  /// measures coordinated omission, not injector lag).  Returns the count
  /// actually queued, clamped to the clients remaining in the graph.
  NodeId inject(NodeId count, std::uint64_t stamp_us = 0);

  /// Runs one protocol round; `now_us` is the current (wall or virtual)
  /// clock used for microsecond settle latencies.
  DynamicStepStats step(std::uint64_t now_us = 0);

  [[nodiscard]] std::uint32_t round() const noexcept { return round_; }
  [[nodiscard]] std::uint64_t backlog() const noexcept {
    return ws_.alive.size();
  }
  [[nodiscard]] NodeId injected_clients() const noexcept {
    return next_client_;
  }
  [[nodiscard]] NodeId pending_clients() const noexcept {
    return pending_total_;
  }
  [[nodiscard]] NodeId num_clients() const noexcept;
  /// Every injected ball settled and no arrivals are queued.
  [[nodiscard]] bool drained() const noexcept;
  /// drained() and the whole graph has been injected.
  [[nodiscard]] bool exhausted() const noexcept;

  /// Current service observables (no per-server pass).
  [[nodiscard]] ServiceMetrics snapshot() const;

  /// Batch-result view of the engine state; `reported_rounds` is the round
  /// count the caller's loop observed (see run_dynamic for the one case
  /// where it differs from round()).
  [[nodiscard]] DynamicResult result(std::uint32_t reported_rounds) const;

 private:
  struct PendingBatch {
    NodeId count = 0;
    std::uint64_t stamp_us = 0;
  };

  /// Shared second-stage construction: validates params, runs the stored
  /// mode's reachability audit, and sizes the workspace from the cached
  /// n_clients_ / n_servers_.
  void init();
  void activate_pending();
  /// Server churn: every healthy server fails with the configured rate.
  void fail_servers();
  /// One kernel round over the alive balls on `source`; settles the
  /// accepted ones.
  template <class Source>
  void play_round(const Source& source, std::uint64_t now_us);

  /// Exactly one of graph_ / topo_ is set: stored mode samples CSR rows,
  /// implicit mode regenerates them (see step()).
  const BipartiteGraph* graph_ = nullptr;
  std::optional<ImplicitRegularTopology> topo_;
  NodeId n_clients_ = 0;
  NodeId n_servers_ = 0;
  DynamicParams params_;
  CounterRng rng_;

  std::uint32_t round_ = 0;
  NodeId next_client_ = 0;       ///< clients activated so far
  NodeId pending_total_ = 0;     ///< queued by inject(), not yet activated
  std::deque<PendingBatch> pending_;
  std::uint64_t activated_this_step_ = 0;

  /// Server state, the alive list (ws_.alive) and the round buffers.
  /// Owned for the engine's life, so it never returns to pristine.
  EngineWorkspace ws_;
  std::vector<std::uint32_t> activation_round_;  ///< per ball
  std::vector<std::uint64_t> stamp_us_;  ///< per client, set at activation

  std::uint64_t work_messages_ = 0;
  std::uint64_t settled_balls_ = 0;
  std::uint64_t max_load_ = 0;
  std::uint64_t burned_servers_ = 0;
  std::uint64_t failed_servers_ = 0;
  IntHistogram latency_rounds_;
  IntHistogram latency_us_;
  double latency_sum_ = 0;
  std::uint32_t latency_max_ = 0;
  std::vector<std::uint64_t> max_load_series_;
  std::vector<std::uint64_t> backlog_series_;
};

/// Runs the dynamic process.  Ball b of client v activates in round
/// 1 + v / arrivals_per_round.  Throws on invalid parameters.
[[nodiscard]] DynamicResult run_dynamic(const BipartiteGraph& graph,
                                        const DynamicParams& params);

/// Implicit-topology dynamic process: bit-identical DynamicResult to
/// run_dynamic(topology.materialize(), params) with O(1) topology memory.
[[nodiscard]] DynamicResult run_dynamic(const ImplicitRegularTopology& topology,
                                        const DynamicParams& params);

}  // namespace saer
