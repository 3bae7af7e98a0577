// Intra-run thread scaling: one run's round loop fans out over the
// workspace's persistent ThreadTeam (util/thread_pool.hpp) when the thread
// budget allows.  The contract under test is the determinism one --
// complete RunResult / DynamicResult equality for every team width -- plus
// the sweep scheduler's core arbitration (`--jobs` composes with run-level
// threads instead of oversubscribing).
//
// The EngineParallel suite also runs under TSan in CI: the team is the
// only thread backend, so the sanitizer sees the real cross-thread
// schedule of the pipelined scatter merge + serve epilogue.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>

#include "core/dynamic.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "sim/sweep.hpp"
#include "util/parallel.hpp"

namespace saer {
namespace {

void expect_equal(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.total_balls, b.total_balls);
  EXPECT_EQ(a.alive_balls, b.alive_balls);
  EXPECT_EQ(a.work_messages, b.work_messages);
  EXPECT_EQ(a.max_load, b.max_load);
  EXPECT_EQ(a.burned_servers, b.burned_servers);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.loads, b.loads);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    const RoundStats& x = a.trace[i];
    const RoundStats& y = b.trace[i];
    EXPECT_EQ(x.round, y.round);
    EXPECT_EQ(x.alive_begin, y.alive_begin);
    EXPECT_EQ(x.submitted, y.submitted);
    EXPECT_EQ(x.accepted, y.accepted);
    EXPECT_EQ(x.newly_burned, y.newly_burned);
    EXPECT_EQ(x.burned_total, y.burned_total);
    EXPECT_EQ(x.saturated, y.saturated);
    EXPECT_EQ(x.r_max_server, y.r_max_server);
    EXPECT_EQ(x.s_max, y.s_max) << "round " << x.round;
    EXPECT_EQ(x.k_max, y.k_max) << "round " << x.round;
    EXPECT_EQ(x.r_max_neighborhood, y.r_max_neighborhood);
  }
}

/// Runs `run` at team widths 1, 2, 4, 8 and requires every RunResult to be
/// bit-identical to the serial one.  The graph is >= 2^15 balls so the
/// width actually engages the team (kIntraRunMinBalls).
template <class Run>
void expect_width_invariant(const Run& run) {
  set_thread_count(1);
  const RunResult serial = run();
  for (const int threads : {2, 4, 8}) {
    set_thread_count(threads);
    const RunResult parallel = run();
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    expect_equal(serial, parallel);
  }
  set_thread_count(0);
}

TEST(EngineParallel, SaerResultIndependentOfTeamWidth) {
  const BipartiteGraph g = random_regular(1u << 14, 16, 2026);
  EngineWorkspace ws;
  expect_width_invariant([&] {
    ProtocolParams p;
    p.d = 2;
    p.c = 2.0;
    p.seed = 31;
    p.record_trace = true;
    return run_protocol(g, p, ws);
  });
}

TEST(EngineParallel, SaerBurningLowCIndependentOfTeamWidth) {
  // c low enough that servers burn: the pipelined serve epilogue's burn /
  // saturation counters must fold identically at every width.
  const BipartiteGraph g = random_regular(1u << 14, 16, 7);
  EngineWorkspace ws;
  expect_width_invariant([&] {
    ProtocolParams p;
    p.d = 2;
    p.c = 1.05;
    p.seed = 97;
    p.record_trace = true;
    return run_protocol(g, p, ws);
  });
}

TEST(EngineParallel, RaesDeepTraceIndependentOfTeamWidth) {
  // deep_trace = the Recv64 policy, unfused round resets, and the O(E)
  // neighborhood reductions -- all on the team executor.
  const BipartiteGraph g = random_regular(1u << 14, 12, 12);
  EngineWorkspace ws;
  expect_width_invariant([&] {
    ProtocolParams p;
    p.protocol = Protocol::kRaes;
    p.d = 2;
    p.c = 1.5;
    p.seed = 5;
    p.deep_trace = true;
    p.record_trace = true;
    return run_protocol(g, p, ws);
  });
}

TEST(EngineParallel, DemandsIndependentOfTeamWidth) {
  const BipartiteGraph g = random_regular(1u << 14, 16, 404);
  std::vector<std::uint32_t> demands(g.num_clients());
  for (NodeId v = 0; v < g.num_clients(); ++v) demands[v] = v % 5;
  EngineWorkspace ws;
  expect_width_invariant([&] {
    ProtocolParams p;
    p.d = 4;
    p.c = 2.0;
    p.seed = 808;
    p.record_trace = true;
    return run_protocol_demands(g, p, demands, ws);
  });
}

TEST(EngineParallel, DynamicResultIndependentOfTeamWidth) {
  // The dynamic engine (and thus `saer serve` steps) shares the team
  // machinery: every scalar and both per-round series must match the
  // serial run, churn coins included.
  const BipartiteGraph g = random_regular(1u << 14, 16, 99);
  DynamicParams params;
  params.base.d = 2;
  params.base.c = 2.0;
  params.base.seed = 11;
  params.server_failure_rate = 0.002;
  set_thread_count(1);
  const DynamicResult serial = run_dynamic(g, params);
  for (const int threads : {2, 4, 8}) {
    set_thread_count(threads);
    const DynamicResult parallel = run_dynamic(g, params);
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    EXPECT_EQ(serial.completed, parallel.completed);
    EXPECT_EQ(serial.rounds, parallel.rounds);
    EXPECT_EQ(serial.total_balls, parallel.total_balls);
    EXPECT_EQ(serial.unassigned_balls, parallel.unassigned_balls);
    EXPECT_EQ(serial.max_load, parallel.max_load);
    EXPECT_EQ(serial.burned_servers, parallel.burned_servers);
    EXPECT_EQ(serial.failed_servers, parallel.failed_servers);
    EXPECT_EQ(serial.work_messages, parallel.work_messages);
    EXPECT_EQ(serial.latency_mean, parallel.latency_mean);
    EXPECT_EQ(serial.latency_p50, parallel.latency_p50);
    EXPECT_EQ(serial.latency_p99, parallel.latency_p99);
    EXPECT_EQ(serial.latency_max, parallel.latency_max);
    EXPECT_EQ(serial.max_load_series, parallel.max_load_series);
    EXPECT_EQ(serial.backlog_series, parallel.backlog_series);
  }
  set_thread_count(0);
}

TEST(EngineParallel, WorkspaceTeamIsReusedAndResized) {
  EngineWorkspace ws;
  EXPECT_EQ(ws.team(0), nullptr);
  EXPECT_EQ(ws.team(1), nullptr);
  ThreadTeam* team = ws.team(3);
  ASSERT_NE(team, nullptr);
  EXPECT_EQ(team->size(), 3u);
  EXPECT_EQ(ws.team(3), team);  // same width -> same team, no respawn
  ThreadTeam* resized = ws.team(2);
  ASSERT_NE(resized, nullptr);
  EXPECT_EQ(resized->size(), 2u);
}

TEST(SweepArbitration, CapSplitsBudgetAcrossActiveWorkers) {
  // Budget 8, 4 sweep workers, 8 pending runs: every run must see an
  // intra-run budget of 8 / 4 = 2.
  set_thread_count(8);
  std::atomic<int> seen_min{1 << 30};
  std::atomic<int> seen_max{0};
  SweepPoint point;
  point.label = "clamp probe";
  point.factory = [](std::uint64_t seed) {
    return random_regular(64, 8, seed);
  };
  point.config.params.d = 2;
  point.config.params.c = 4.0;
  point.config.replications = 8;
  point.config.master_seed = 3;
  point.runner = [&](const BipartiteGraph& graph, const ProtocolParams& params,
                     std::uint32_t) {
    const int threads = intra_run_threads();
    int expect = seen_min.load();
    while (threads < expect &&
           !seen_min.compare_exchange_weak(expect, threads)) {
    }
    expect = seen_max.load();
    while (threads > expect &&
           !seen_max.compare_exchange_weak(expect, threads)) {
    }
    return run_protocol(graph, params);
  };
  SweepOptions options;
  options.jobs = 4;
  const SweepResult ignored = SweepScheduler(options).run({point});
  (void)ignored;
  EXPECT_EQ(seen_min.load(), 2);
  EXPECT_EQ(seen_max.load(), 2);
  // The cap is scoped to the sweep: the full budget is back afterwards.
  EXPECT_EQ(intra_run_threads(), 8);
  set_thread_count(0);
}

TEST(SweepArbitration, SinglePendingRunKeepsFullBudget) {
  // One pending run on a 4-worker pool: the surplus workers idle, so the
  // run keeps the whole budget (the "giant single run via sweep" case).
  set_thread_count(8);
  std::atomic<int> seen{0};
  SweepPoint point;
  point.label = "solo probe";
  point.factory = [](std::uint64_t seed) {
    return random_regular(64, 8, seed);
  };
  point.config.params.d = 2;
  point.config.params.c = 4.0;
  point.config.replications = 1;
  point.config.master_seed = 3;
  point.runner = [&](const BipartiteGraph& graph, const ProtocolParams& params,
                     std::uint32_t) {
    seen.store(intra_run_threads());
    return run_protocol(graph, params);
  };
  SweepOptions options;
  options.jobs = 4;
  const SweepResult ignored = SweepScheduler(options).run({point});
  (void)ignored;
  EXPECT_EQ(seen.load(), 8);
  set_thread_count(0);
}

TEST(SweepArbitration, IntraRunCapClampsAndRestores) {
  set_thread_count(6);
  EXPECT_EQ(intra_run_threads(), 6);
  {
    const IntraRunThreadCap cap(2);
    EXPECT_EQ(intra_run_threads(), 2);
    {
      const IntraRunThreadCap inner(4);  // nested caps restore in order
      EXPECT_EQ(intra_run_threads(), 4);
    }
    EXPECT_EQ(intra_run_threads(), 2);
  }
  EXPECT_EQ(intra_run_threads(), 6);
  set_thread_count(0);
}

}  // namespace
}  // namespace saer
