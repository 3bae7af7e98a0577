// Golden pin for the DynamicEngine refactor: run_dynamic() is now a thin
// wrapper over the incremental engine (core/dynamic.hpp), and this file
// keeps a verbatim copy of the pre-engine monolithic loop as the reference.
// Every DynamicResult field -- scalars, latency statistics, and both
// per-round series -- must be bit-identical across both protocols, arrival
// schedules, and failure rates.  Any intentional behaviour change to the
// engine must update this reference in the same commit, which is exactly
// the review speed bump the pin is for.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/dynamic.hpp"
#include "core/scatter.hpp"
#include "graph/generators.hpp"
#include "util/fastdiv.hpp"
#include "util/histogram.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace saer {
namespace {

constexpr std::uint64_t kFailureStreamBase = 0x8000'0000'0000'0000ULL;

/// The pre-refactor run_dynamic, copied verbatim (modulo the anonymous
/// namespace) from src/core/dynamic.cpp as of the engine split.
DynamicResult reference_run_dynamic(const BipartiteGraph& graph,
                                    const DynamicParams& params) {
  params.base.validate();
  if (params.server_failure_rate < 0.0 || params.server_failure_rate >= 1.0)
    throw std::invalid_argument("run_dynamic: failure rate outside [0,1)");

  const NodeId n_clients = graph.num_clients();
  const NodeId n_servers = graph.num_servers();
  const std::uint32_t d = params.base.d;
  const std::uint64_t cap = params.base.capacity();
  const std::uint64_t total_balls = static_cast<std::uint64_t>(n_clients) * d;
  const std::uint32_t arrivals =
      params.arrivals_per_round == 0 ? n_clients : params.arrivals_per_round;
  const std::uint32_t last_arrival_round =
      n_clients == 0 ? 1 : 1 + (n_clients - 1) / arrivals;
  const std::uint32_t drain =
      params.drain_rounds ? params.drain_rounds
                          : ProtocolParams::default_max_rounds(n_clients);
  const std::uint32_t max_rounds = last_arrival_round + drain;

  for (NodeId v = 0; v < n_clients; ++v) {
    if (graph.client_degree(v) == 0)
      throw std::invalid_argument(
          "run_dynamic: client has no admissible server");
  }

  const CounterRng rng(params.base.seed);

  DynamicResult res;
  res.total_balls = total_balls;

  std::vector<BallId> alive;
  alive.reserve(total_balls);
  std::vector<BallId> next_alive;
  next_alive.reserve(total_balls);
  std::vector<NodeId> target(total_balls);
  std::vector<std::uint32_t> activation_round(total_balls);
  std::vector<std::uint32_t> latency;
  latency.reserve(total_balls);

  std::vector<std::uint32_t> round_recv(n_servers, 0);
  std::vector<std::uint64_t> recv_total(n_servers, 0);
  ScatterScratch scatter;
  const FastDiv32 by_d(d);
  std::vector<std::uint32_t> accepted(n_servers, 0);
  std::vector<std::uint8_t> burned(n_servers, 0);   // protocol state
  std::vector<std::uint8_t> failed(n_servers, 0);   // churn state
  std::vector<std::uint8_t> accept_flag(n_servers, 0);

  NodeId next_client = 0;
  std::uint32_t round = 0;
  while (round < max_rounds) {
    ++round;

    // Arrivals: activate the next cohort of clients.
    const NodeId cohort_end =
        static_cast<NodeId>(std::min<std::uint64_t>(
            static_cast<std::uint64_t>(next_client) + arrivals, n_clients));
    for (; next_client < cohort_end; ++next_client) {
      for (std::uint32_t i = 0; i < d; ++i) {
        const BallId b = static_cast<BallId>(next_client) * d + i;
        alive.push_back(b);
        activation_round[b] = round;
      }
    }
    if (alive.empty() && next_client == n_clients) break;

    // Server churn: healthy servers fail independently.
    if (params.server_failure_rate > 0.0) {
      parallel_for(0, n_servers, [&](std::size_t ui) {
        if (failed[ui]) return;
        const double coin = rng.uniform01(kFailureStreamBase + ui, round);
        if (coin < params.server_failure_rate) failed[ui] = 1;
      });
    }

    const std::size_t m = alive.size();
    scatter_count(
        scatter_layout(m, n_servers,
                       static_cast<std::size_t>(parallel_width())),
        scatter, m, round_recv.data(), false,
        [&](std::size_t i) {
          const BallId b = alive[i];
          const auto v = static_cast<NodeId>(by_d.quotient(b));
          const std::uint32_t deg = graph.client_degree(v);
          const std::uint64_t k = rng.bounded(b, round, deg);
          return graph.client_neighbors(v).data() + k;
        },
        [&](std::size_t i, NodeId u) { target[i] = u; },
        [](std::size_t, NodeId) {});

    parallel_for(0, n_servers, [&](std::size_t ui) {
      const std::uint32_t rr = round_recv[ui];
      std::uint8_t flag = 0;
      if (rr != 0) {
        recv_total[ui] += rr;
        if (failed[ui]) {
          // Failed servers answer nothing; clients treat it as a reject.
        } else if (params.base.protocol == Protocol::kSaer) {
          if (!burned[ui]) {
            if (recv_total[ui] > cap) {
              burned[ui] = 1;
            } else {
              accepted[ui] += rr;
              flag = 1;
            }
          }
        } else {
          if (accepted[ui] + rr <= cap) {
            accepted[ui] += rr;
            flag = 1;
          }
        }
      }
      accept_flag[ui] = flag;
    });

    next_alive.clear();
    for (std::size_t i = 0; i < m; ++i) {
      const BallId b = alive[i];
      if (accept_flag[target[i]]) {
        latency.push_back(round - activation_round[b] + 1);
      } else {
        next_alive.push_back(b);
      }
    }
    res.work_messages += 2 * static_cast<std::uint64_t>(m);
    alive.swap(next_alive);

    std::fill(round_recv.begin(), round_recv.end(), 0u);

    std::uint64_t max_load = 0;
    for (NodeId u = 0; u < n_servers; ++u)
      max_load = std::max<std::uint64_t>(max_load, accepted[u]);
    res.max_load_series.push_back(max_load);
    res.backlog_series.push_back(alive.size());

    if (alive.empty() && next_client == n_clients) break;
  }

  res.rounds = round;
  res.unassigned_balls = alive.size();
  res.completed = alive.empty() && next_client == n_clients;
  for (NodeId u = 0; u < n_servers; ++u) {
    res.max_load = std::max<std::uint64_t>(res.max_load, accepted[u]);
    res.burned_servers += burned[u];
    res.failed_servers += failed[u];
  }
  if (!latency.empty()) {
    IntHistogram h;
    double sum = 0;
    std::uint32_t lmax = 0;
    for (std::uint32_t l : latency) {
      h.add(l);
      sum += l;
      lmax = std::max(lmax, l);
    }
    res.latency_mean = sum / static_cast<double>(latency.size());
    res.latency_p50 = static_cast<std::uint32_t>(h.quantile(0.50));
    res.latency_p99 = static_cast<std::uint32_t>(h.quantile(0.99));
    res.latency_max = lmax;
  }
  return res;
}

void expect_identical(const DynamicResult& got, const DynamicResult& want) {
  EXPECT_EQ(got.completed, want.completed);
  EXPECT_EQ(got.rounds, want.rounds);
  EXPECT_EQ(got.total_balls, want.total_balls);
  EXPECT_EQ(got.unassigned_balls, want.unassigned_balls);
  EXPECT_EQ(got.max_load, want.max_load);
  EXPECT_EQ(got.burned_servers, want.burned_servers);
  EXPECT_EQ(got.failed_servers, want.failed_servers);
  EXPECT_EQ(got.work_messages, want.work_messages);
  // Bit-identical, not approximately equal: the engine accumulates the
  // latency sum in the same settle order as the reference.
  EXPECT_EQ(got.latency_mean, want.latency_mean);
  EXPECT_EQ(got.latency_p50, want.latency_p50);
  EXPECT_EQ(got.latency_p99, want.latency_p99);
  EXPECT_EQ(got.latency_max, want.latency_max);
  EXPECT_EQ(got.max_load_series, want.max_load_series);
  EXPECT_EQ(got.backlog_series, want.backlog_series);
}

struct GoldenCase {
  Protocol protocol;
  std::uint32_t arrivals_per_round;
  double failure_rate;
};

class DynamicGolden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(DynamicGolden, WrapperMatchesMonolithicLoop) {
  const GoldenCase& tc = GetParam();
  const BipartiteGraph g = random_regular(192, 20, 17);
  DynamicParams p;
  p.base.protocol = tc.protocol;
  p.base.d = 2;
  p.base.c = 4.0;
  p.base.seed = 9001;
  p.arrivals_per_round = tc.arrivals_per_round;
  p.server_failure_rate = tc.failure_rate;
  expect_identical(run_dynamic(g, p), reference_run_dynamic(g, p));
}

std::string golden_name(const ::testing::TestParamInfo<GoldenCase>& info) {
  const GoldenCase& tc = info.param;
  std::string name = tc.protocol == Protocol::kSaer ? "SAER" : "RAES";
  name += "_arrivals" + std::to_string(tc.arrivals_per_round);
  name += "_fail";
  for (const char ch : std::to_string(tc.failure_rate)) {
    name += ch == '.' ? 'p' : ch;
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, DynamicGolden,
    ::testing::Values(GoldenCase{Protocol::kSaer, 0, 0.0},
                      GoldenCase{Protocol::kSaer, 8, 0.0},
                      GoldenCase{Protocol::kSaer, 32, 0.0},
                      GoldenCase{Protocol::kSaer, 8, 0.01},
                      GoldenCase{Protocol::kSaer, 32, 0.3},
                      GoldenCase{Protocol::kRaes, 0, 0.0},
                      GoldenCase{Protocol::kRaes, 8, 0.0},
                      GoldenCase{Protocol::kRaes, 32, 0.0},
                      GoldenCase{Protocol::kRaes, 8, 0.01},
                      GoldenCase{Protocol::kRaes, 32, 0.3}),
    golden_name);

TEST(DynamicGoldenEdge, EmptyGraphMatches) {
  const BipartiteGraph g = complete_bipartite(0, 0);
  DynamicParams p;
  p.base.d = 2;
  p.base.c = 4.0;
  p.base.seed = 1;
  expect_identical(run_dynamic(g, p), reference_run_dynamic(g, p));
}

TEST(DynamicGoldenEdge, DrainCapHitMatches) {
  // Massive churn on a sparse ring: both loops run into the drain cap
  // without completing; the incomplete tails must agree too.
  const BipartiteGraph g = ring_proximity(64, 8);
  DynamicParams p;
  p.base.d = 2;
  p.base.c = 8.0;
  p.base.seed = 123;
  p.arrivals_per_round = 4;
  p.server_failure_rate = 0.5;
  p.drain_rounds = 60;
  expect_identical(run_dynamic(g, p), reference_run_dynamic(g, p));
}

// ---------------------------------------------------------------------------
// Serve pin: `saer serve` drives DynamicEngine one step at a time and
// reports snapshot() rows, so the step statistics and the snapshot fields
// -- including both latency histograms -- are pinned here as FNV-1a digests
// (the tests/test_golden_hash.cpp construction).  The literals were
// recorded before the dynamic engine moved onto the batch engine's round
// kernel; they hold for every team width.
// ---------------------------------------------------------------------------

struct ServeHasher {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
  void u64(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;  // FNV-1a prime
    }
  }
  void f64(double x) {
    std::uint64_t bits;
    std::memcpy(&bits, &x, sizeof bits);
    u64(bits);
  }
  void histogram(const IntHistogram& hist) {
    const auto items = hist.items();
    u64(items.size());
    for (const auto& [value, count] : items) {
      u64(static_cast<std::uint64_t>(value));
      u64(count);
    }
  }
  void step(const DynamicStepStats& s) {
    u64(s.round);
    u64(s.activated_balls);
    u64(s.settled_balls);
    u64(s.backlog);
    u64(s.max_load);
  }
  void snapshot(const ServiceMetrics& m) {
    u64(m.round);
    u64(m.injected_clients);
    u64(m.injected_balls);
    u64(m.assigned_balls);
    u64(m.backlog);
    u64(m.work_messages);
    u64(m.max_load);
    f64(m.mean_load);
    u64(m.burned_servers);
    u64(m.failed_servers);
    histogram(m.latency_rounds);
    histogram(m.latency_us);
  }
};

/// Bursty schedule on the virtual clock: 200 rounds alternating 10-round
/// phases of 4 and 40 clients, then 40 quiet rounds.  Every step and every
/// 10th snapshot go into the digest.
std::uint64_t serve_digest(DynamicEngine& engine) {
  ServeHasher h;
  for (std::uint32_t r = 1; r <= 240; ++r) {
    const std::uint64_t stamp = std::uint64_t{r} * 1000;
    if (r <= 200) engine.inject((r / 10) % 2 == 0 ? 4 : 40, stamp);
    h.step(engine.step(stamp + 700));
    if (r % 10 == 0) h.snapshot(engine.snapshot());
  }
  return h.h;
}

DynamicParams serve_params(Protocol protocol, double failure_rate) {
  DynamicParams p;
  p.base.protocol = protocol;
  p.base.d = 2;
  p.base.c = 1.5;
  p.base.seed = 4242;
  p.server_failure_rate = failure_rate;
  p.latency_bucket_us = 100;
  return p;
}

struct ServePinCase {
  bool implicit;
  Protocol protocol;
  double failure_rate;
  std::uint64_t want;
};

TEST(DynamicServePin, SparseStepsAndSnapshots) {
  const ImplicitRegularTopology topo(4096, 16, 77);
  const BipartiteGraph graph = random_regular(4096, 16, 77);
  const ServePinCase cases[] = {
      {false, Protocol::kSaer, 0.0, 0xa0d8aa3f55ba6642ULL},
      {false, Protocol::kSaer, 0.002, 0x41f006bda023901fULL},
      {false, Protocol::kRaes, 0.0, 0x0aec1667354b87a4ULL},
      {false, Protocol::kRaes, 0.002, 0x7aa4523e70a1a92eULL},
      {true, Protocol::kSaer, 0.0, 0xced898804b2cb12cULL},
      {true, Protocol::kSaer, 0.002, 0xe8b64f3fd09c67d9ULL},
      {true, Protocol::kRaes, 0.0, 0xce1f62452cca45c0ULL},
      {true, Protocol::kRaes, 0.002, 0xb0b26feb73ea2148ULL},
  };
  for (const ServePinCase& tc : cases) {
    const DynamicParams p = serve_params(tc.protocol, tc.failure_rate);
    std::uint64_t got = 0;
    if (tc.implicit) {
      DynamicEngine engine(topo, p);
      got = serve_digest(engine);
    } else {
      DynamicEngine engine(graph, p);
      got = serve_digest(engine);
    }
    EXPECT_EQ(got, tc.want)
        << std::hex << "0x" << got << std::dec << " implicit=" << tc.implicit
        << " protocol=" << (tc.protocol == Protocol::kSaer ? "SAER" : "RAES")
        << " failure_rate=" << tc.failure_rate;
  }
}

TEST(DynamicServePin, LargeBurstAcrossTeamWidths) {
  // 2^15 clients (2^16 balls) injected at once: the first steps clear the
  // serial threshold and run on the engine's team at width 4.
  const BipartiteGraph graph = random_regular(1u << 15, 16, 78);
  const DynamicParams p = serve_params(Protocol::kSaer, 0.002);
  for (const int threads : {1, 4}) {
    set_thread_count(threads);
    DynamicEngine engine(graph, p);
    engine.inject(1u << 15, 0);
    ServeHasher h;
    for (std::uint32_t r = 1; r <= 30; ++r) {
      h.step(engine.step(std::uint64_t{r} * 1000));
      if (r % 5 == 0) h.snapshot(engine.snapshot());
    }
    EXPECT_EQ(h.h, 0xb3b953aa0831b1feULL) << std::hex << "0x" << h.h << std::dec
                         << " threads=" << threads;
  }
  set_thread_count(0);
}

}  // namespace
}  // namespace saer
