// Tests for the incremental DynamicEngine API (core/dynamic.hpp): inject /
// step / snapshot semantics, batching-independence of arrivals, and the
// microsecond settle-latency clock.  Bit-identity of the run_dynamic()
// wrapper against the pre-engine loop is pinned separately in
// tests/test_dynamic_golden.cpp.

#include <gtest/gtest.h>

#include "core/dynamic.hpp"
#include "graph/generators.hpp"

namespace saer {
namespace {

DynamicParams engine_params() {
  DynamicParams p;
  p.base.d = 2;
  p.base.c = 8.0;
  p.base.seed = 123;
  return p;
}

TEST(DynamicEngineTest, InjectClampsToRemainingClients) {
  const BipartiteGraph g = random_regular(64, 8, 3);
  DynamicEngine engine(g, engine_params());
  EXPECT_EQ(engine.inject(40), 40u);
  EXPECT_EQ(engine.pending_clients(), 40u);
  EXPECT_EQ(engine.inject(40), 24u);  // only 24 of 64 left
  EXPECT_EQ(engine.inject(40), 0u);
  EXPECT_EQ(engine.pending_clients(), 64u);
  EXPECT_EQ(engine.injected_clients(), 0u);  // queued, not yet activated
  engine.step();
  EXPECT_EQ(engine.injected_clients(), 64u);
  EXPECT_EQ(engine.pending_clients(), 0u);
}

TEST(DynamicEngineTest, StepIsQuiescentWithoutArrivals) {
  const BipartiteGraph g = random_regular(64, 8, 3);
  DynamicEngine engine(g, engine_params());
  const DynamicStepStats s1 = engine.step();
  EXPECT_EQ(s1.round, 1u);
  EXPECT_EQ(s1.activated_balls, 0u);
  EXPECT_EQ(s1.settled_balls, 0u);
  EXPECT_EQ(s1.backlog, 0u);
  EXPECT_TRUE(engine.drained());
  EXPECT_FALSE(engine.exhausted());  // no client injected yet
  const DynamicStepStats s2 = engine.step();
  EXPECT_EQ(s2.round, 2u);
}

TEST(DynamicEngineTest, ArrivalBatchingWithinARoundIsIrrelevant) {
  const BipartiteGraph g = random_regular(128, 16, 4);
  DynamicEngine one(g, engine_params());
  DynamicEngine split(g, engine_params());
  one.inject(32);
  split.inject(10);
  split.inject(22);
  for (int r = 0; r < 40; ++r) {
    const DynamicStepStats a = one.step();
    const DynamicStepStats b = split.step();
    EXPECT_EQ(a.settled_balls, b.settled_balls);
    EXPECT_EQ(a.backlog, b.backlog);
    EXPECT_EQ(a.max_load, b.max_load);
    if (one.drained() && split.drained()) break;
  }
  EXPECT_TRUE(one.drained());
  EXPECT_TRUE(split.drained());
}

TEST(DynamicEngineTest, SnapshotTracksServiceCounts) {
  const BipartiteGraph g = random_regular(128, 16, 5);
  DynamicEngine engine(g, engine_params());
  engine.inject(128);
  while (!engine.drained()) engine.step();
  EXPECT_TRUE(engine.exhausted());
  const ServiceMetrics snap = engine.snapshot();
  EXPECT_EQ(snap.injected_clients, 128u);
  EXPECT_EQ(snap.injected_balls, 256u);
  EXPECT_EQ(snap.assigned_balls, 256u);
  EXPECT_EQ(snap.backlog, 0u);
  EXPECT_EQ(snap.latency_rounds.total(), 256u);
  EXPECT_EQ(snap.latency_us.total(), 256u);
  EXPECT_GT(snap.max_load, 0u);
  EXPECT_DOUBLE_EQ(snap.mean_load, 2.0);  // 256 balls over 128 servers
}

TEST(DynamicEngineTest, MicrosecondLatencyUsesInjectStamp) {
  const BipartiteGraph g = random_regular(64, 8, 6);
  DynamicEngine engine(g, engine_params());
  engine.inject(64, /*stamp_us=*/1000);
  std::uint64_t now = 1000;
  while (!engine.drained()) {
    now += 500;
    engine.step(now);
  }
  const ServiceMetrics snap = engine.snapshot();
  ASSERT_FALSE(snap.latency_us.empty());
  // Every settle happened at a step clock strictly after the stamp, in
  // whole 500 us increments.
  EXPECT_GE(snap.latency_us.min(), 500);
  EXPECT_EQ(snap.latency_us.min() % 500, 0);
  EXPECT_EQ(snap.latency_us.max() % 500, 0);
}

TEST(DynamicEngineTest, LatencyBucketWidthBinsTheUsHistogram) {
  const BipartiteGraph g = random_regular(64, 8, 6);
  DynamicParams p = engine_params();
  p.latency_bucket_us = 1000;
  DynamicEngine engine(g, p);
  engine.inject(64, /*stamp_us=*/0);
  std::uint64_t now = 0;
  while (!engine.drained()) {
    now += 1234;
    engine.step(now);
  }
  const ServiceMetrics snap = engine.snapshot();
  EXPECT_EQ(snap.latency_us.bucket_width(), 1000);
  for (const auto& [value, count] : snap.latency_us.items()) {
    EXPECT_EQ(value % 1000, 0) << "bucketed value " << value;
    EXPECT_GT(count, 0u);
  }
}

TEST(DynamicEngineTest, SteppingPastDrainKeepsChurnGoing) {
  const BipartiteGraph g = random_regular(64, 8, 7);
  DynamicParams p = engine_params();
  p.server_failure_rate = 0.1;
  DynamicEngine engine(g, p);
  engine.inject(64);
  for (int r = 0; r < 30; ++r) engine.step();
  const std::uint64_t failed_then = engine.snapshot().failed_servers;
  for (int r = 0; r < 30; ++r) engine.step();  // quiescent rounds
  EXPECT_GE(engine.snapshot().failed_servers, failed_then);
  EXPECT_GT(engine.snapshot().failed_servers, 0u);
}

TEST(DynamicEngineTest, ValidationMatchesRunDynamic) {
  const BipartiteGraph g = complete_bipartite(4, 4);
  DynamicParams p = engine_params();
  p.server_failure_rate = 1.0;
  EXPECT_THROW(DynamicEngine(g, p), std::invalid_argument);
  p.server_failure_rate = -0.1;
  EXPECT_THROW(DynamicEngine(g, p), std::invalid_argument);
  p = engine_params();
  p.latency_bucket_us = 0;
  EXPECT_THROW(DynamicEngine(g, p), std::invalid_argument);
}

}  // namespace
}  // namespace saer
