// Tests for the trace helper functions and the parallel wrapper.

#include <gtest/gtest.h>

#include <atomic>

#include "core/trace.hpp"
#include "util/parallel.hpp"

namespace saer {
namespace {

std::vector<RoundStats> sample_trace() {
  std::vector<RoundStats> trace(3);
  trace[0].round = 1;
  trace[0].alive_begin = 100;
  trace[0].submitted = 100;
  trace[0].accepted = 60;
  trace[1].round = 2;
  trace[1].alive_begin = 40;
  trace[1].submitted = 40;
  trace[1].accepted = 30;
  trace[2].round = 3;
  trace[2].alive_begin = 10;
  trace[2].submitted = 10;
  trace[2].accepted = 10;
  return trace;
}

TEST(TraceUtils, AcceptanceRates) {
  const auto rates = acceptance_rates(sample_trace());
  ASSERT_EQ(rates.size(), 3u);
  EXPECT_DOUBLE_EQ(rates[0], 0.6);
  EXPECT_DOUBLE_EQ(rates[1], 0.75);
  EXPECT_DOUBLE_EQ(rates[2], 1.0);
}

TEST(TraceUtils, AcceptanceRateEmptyRound) {
  std::vector<RoundStats> trace(1);
  trace[0].submitted = 0;
  EXPECT_DOUBLE_EQ(acceptance_rates(trace)[0], 1.0);
}

TEST(TraceUtils, AliveSeries) {
  const auto alive = alive_series(sample_trace(), 100);
  ASSERT_EQ(alive.size(), 4u);
  EXPECT_DOUBLE_EQ(alive[0], 100.0);
  EXPECT_DOUBLE_EQ(alive[1], 40.0);
  EXPECT_DOUBLE_EQ(alive[2], 10.0);
  EXPECT_DOUBLE_EQ(alive[3], 0.0);
}

TEST(TraceUtils, FirstRoundBelow) {
  const auto trace = sample_trace();
  EXPECT_EQ(first_round_below(trace, 100, 50), 1u);
  EXPECT_EQ(first_round_below(trace, 100, 10), 2u);
  EXPECT_EQ(first_round_below(trace, 100, 0), 3u);
  EXPECT_EQ(first_round_below(trace, 100, 100), 0u);  // already below
  EXPECT_EQ(first_round_below({}, 100, 50), 0u);      // never reached
}

TEST(Parallel, ForCoversRange) {
  std::vector<std::atomic<int>> hits(100);
  parallel_for(10, 90, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(hits[i].load(), (i >= 10 && i < 90) ? 1 : 0) << i;
  }
}

TEST(Parallel, EmptyRangeIsNoop) {
  int calls = 0;
  parallel_for(5, 5, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(Parallel, ReduceSum) {
  const std::uint64_t total =
      parallel_reduce_sum(1, 101, [](std::size_t i) { return i; });
  EXPECT_EQ(total, 5050u);
}

TEST(Parallel, ReduceMax) {
  const double best = parallel_reduce_max(0, 1000, [](std::size_t i) {
    return i == 677 ? 3.5 : 1.0 / (1.0 + static_cast<double>(i));
  });
  EXPECT_DOUBLE_EQ(best, 3.5);
}

TEST(Parallel, ThreadCountConfiguration) {
  set_thread_count(2);
  EXPECT_EQ(configured_threads(), 2);
  set_thread_count(0);
  EXPECT_EQ(configured_threads(), hardware_threads());
  set_thread_count(-3);
  EXPECT_EQ(configured_threads(), hardware_threads());
  EXPECT_GE(hardware_threads(), 1);
}

}  // namespace
}  // namespace saer
