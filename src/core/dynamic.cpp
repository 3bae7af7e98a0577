#include "core/dynamic.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/round.hpp"
#include "util/parallel.hpp"

namespace saer {

namespace {
/// Separate stream namespace for server-failure coin flips so they never
/// collide with ball streams (balls use stream = ball id < n*d).
constexpr std::uint64_t kFailureStreamBase = 0x8000'0000'0000'0000ULL;
}  // namespace

DynamicEngine::DynamicEngine(const BipartiteGraph& graph,
                             const DynamicParams& params)
    : graph_(&graph),
      n_clients_(graph.num_clients()),
      n_servers_(graph.num_servers()),
      params_(params),
      rng_(params.base.seed),
      latency_us_(params.latency_bucket_us) {
  init();
}

DynamicEngine::DynamicEngine(const ImplicitRegularTopology& topology,
                             const DynamicParams& params)
    : topo_(topology),
      n_clients_(topology.num_clients()),
      n_servers_(topology.num_servers()),
      params_(params),
      rng_(params.base.seed),
      latency_us_(params.latency_bucket_us) {
  init();
}

void DynamicEngine::init() {
  params_.base.validate();
  if (params_.server_failure_rate < 0.0 || params_.server_failure_rate >= 1.0)
    throw std::invalid_argument("run_dynamic: failure rate outside [0,1)");

  // Stored graphs can contain isolated clients; implicit topologies have
  // degree() >= 1 for every client by construction, so only the stored
  // mode pays the O(n) audit.
  if (graph_ != nullptr) {
    for (NodeId v = 0; v < n_clients_; ++v) {
      if (graph_->client_degree(v) == 0)
        throw std::invalid_argument(
            "run_dynamic: client has no admissible server");
    }
  }

  const std::uint64_t total_balls =
      static_cast<std::uint64_t>(n_clients_) * params_.base.d;
  // Exact cumulative counts, as the service has no width dispatch: only
  // the SAER comparison reads them, so either width gives the same bits.
  ws_.ensure(n_servers_, total_balls, /*wide_recv_total=*/true);
  ws_.alive.reserve(total_balls);
  activation_round_.resize(total_balls);
  stamp_us_.resize(n_clients_, 0);
}

NodeId DynamicEngine::num_clients() const noexcept {
  return n_clients_;
}

bool DynamicEngine::drained() const noexcept {
  return ws_.alive.empty() && pending_total_ == 0;
}

bool DynamicEngine::exhausted() const noexcept {
  return drained() && next_client_ == n_clients_;
}

NodeId DynamicEngine::inject(NodeId count, std::uint64_t stamp_us) {
  const NodeId remaining = n_clients_ - next_client_ - pending_total_;
  count = std::min(count, remaining);
  if (count == 0) return 0;
  pending_.push_back({count, stamp_us});
  pending_total_ += count;
  return count;
}

void DynamicEngine::activate_pending() {
  const std::uint32_t d = params_.base.d;
  activated_this_step_ = 0;
  while (!pending_.empty()) {
    const PendingBatch batch = pending_.front();
    pending_.pop_front();
    const NodeId cohort_end = next_client_ + batch.count;
    for (; next_client_ < cohort_end; ++next_client_) {
      stamp_us_[next_client_] = batch.stamp_us;
      for (std::uint32_t i = 0; i < d; ++i) {
        const BallId b = static_cast<BallId>(next_client_) * d + i;
        ws_.alive.push_back(b);
        activation_round_[b] = round_;
      }
    }
    activated_this_step_ += static_cast<std::uint64_t>(batch.count) * d;
  }
  pending_total_ = 0;
}

void DynamicEngine::fail_servers() {
  // The one pass over every server, so it always gets the team: a failure
  // rate makes each step O(num_servers) whatever the backlog.
  const TeamRegion region(ws_.team(intra_run_threads()));
  std::uint8_t* const flags = ws_.flags.data();
  failed_servers_ += parallel_reduce_sum(0, n_servers_, [&](std::size_t ui) {
    if (flags[ui] & kServerFailed) return 0;
    const double coin = rng_.uniform01(kFailureStreamBase + ui, round_);
    if (coin >= params_.server_failure_rate) return 0;
    flags[ui] |= kServerFailed;
    return 1;
  });
}

template <class Source>
void DynamicEngine::play_round(const Source& source, std::uint64_t now_us) {
  const std::size_t m = ws_.alive.size();
  const int width = m >= kIntraRunMinBalls ? intra_run_threads() : 1;
  const TeamRegion region(ws_.team(width));
  const UniformBallClient ball_client(params_.base.d);
  RoundKernel<Source, UniformBallClient, Recv64, /*kFailures=*/true> kernel(
      source, ball_client, Recv64{ws_.recv_total64.data()}, params_.base,
      ws_);
  const RoundBlockStats s =
      kernel.serve(round_, ws_.alive.data(), m, /*keep_counts=*/false);
  max_load_ = std::max(max_load_, s.max_load);
  burned_servers_ += s.newly_burned;
  // Settle on this thread, in alive order: the latency sum is a double.
  kernel.emit(/*in_order=*/true, [&](BallId b, NodeId) {
    const std::uint32_t lat = round_ - activation_round_[b] + 1;
    latency_rounds_.add(lat);
    latency_sum_ += lat;
    latency_max_ = std::max(latency_max_, lat);
    latency_us_.add(
        static_cast<std::int64_t>(now_us - stamp_us_[ball_client(b)]));
    ++settled_balls_;
  });
  work_messages_ += 2 * static_cast<std::uint64_t>(m);
}

DynamicStepStats DynamicEngine::step(std::uint64_t now_us) {
  ++round_;
  activate_pending();
  if (params_.server_failure_rate > 0.0) fail_servers();

  const std::uint64_t backlog_before = ws_.alive.size();
  if (graph_ != nullptr) {
    play_round(StoredSource{*graph_}, now_us);
  } else {
    play_round(ImplicitSource{*topo_}, now_us);
  }
  max_load_series_.push_back(max_load_);
  backlog_series_.push_back(ws_.alive.size());

  DynamicStepStats stats;
  stats.round = round_;
  stats.activated_balls = activated_this_step_;
  stats.settled_balls = backlog_before - ws_.alive.size();
  stats.backlog = ws_.alive.size();
  stats.max_load = max_load_;
  return stats;
}

ServiceMetrics DynamicEngine::snapshot() const {
  ServiceMetrics out;
  out.round = round_;
  out.injected_clients = next_client_;
  out.injected_balls =
      static_cast<std::uint64_t>(next_client_) * params_.base.d;
  out.assigned_balls = settled_balls_;
  out.backlog = ws_.alive.size();
  out.work_messages = work_messages_;
  out.max_load = max_load_;
  out.burned_servers = burned_servers_;
  out.failed_servers = failed_servers_;
  out.latency_rounds = latency_rounds_;
  out.latency_us = latency_us_;
  out.mean_load = n_servers_ == 0
                      ? 0.0
                      : static_cast<double>(settled_balls_) /
                            static_cast<double>(n_servers_);
  return out;
}

DynamicResult DynamicEngine::result(std::uint32_t reported_rounds) const {
  DynamicResult res;
  res.total_balls =
      static_cast<std::uint64_t>(n_clients_) * params_.base.d;
  res.rounds = reported_rounds;
  res.unassigned_balls = ws_.alive.size();
  res.completed = ws_.alive.empty() && pending_total_ == 0 &&
                  next_client_ == n_clients_;
  res.work_messages = work_messages_;
  res.max_load = max_load_;
  res.burned_servers = burned_servers_;
  res.failed_servers = failed_servers_;
  if (!latency_rounds_.empty()) {
    res.latency_mean =
        latency_sum_ / static_cast<double>(latency_rounds_.total());
    res.latency_p50 =
        static_cast<std::uint32_t>(latency_rounds_.quantile(0.50));
    res.latency_p99 =
        static_cast<std::uint32_t>(latency_rounds_.quantile(0.99));
    res.latency_max = latency_max_;
  }
  res.max_load_series = max_load_series_;
  res.backlog_series = backlog_series_;
  return res;
}

namespace {
/// Shared batch driver for both run_dynamic overloads: replays the fixed
/// arrival schedule through an already-constructed engine.
DynamicResult drive_dynamic(DynamicEngine& engine, NodeId n_clients,
                            const DynamicParams& params) {
  const std::uint32_t arrivals =
      params.arrivals_per_round == 0 ? n_clients : params.arrivals_per_round;
  const std::uint32_t last_arrival_round =
      n_clients == 0 ? 1 : 1 + (n_clients - 1) / arrivals;
  const std::uint32_t drain = params.drain_rounds
                                  ? params.drain_rounds
                                  : ProtocolParams::default_max_rounds(n_clients);
  const std::uint32_t max_rounds = last_arrival_round + drain;

  std::uint32_t rounds = 0;
  while (rounds < max_rounds) {
    engine.inject(arrivals);
    if (engine.exhausted()) {
      // The monolithic loop counted the round in which it noticed there
      // was nothing left to do (only reachable with zero clients).
      ++rounds;
      break;
    }
    rounds = engine.step().round;
    if (engine.exhausted()) break;
  }
  return engine.result(rounds);
}
}  // namespace

DynamicResult run_dynamic(const BipartiteGraph& graph,
                          const DynamicParams& params) {
  DynamicEngine engine(graph, params);
  return drive_dynamic(engine, graph.num_clients(), params);
}

DynamicResult run_dynamic(const ImplicitRegularTopology& topology,
                          const DynamicParams& params) {
  DynamicEngine engine(topology, params);
  return drive_dynamic(engine, topology.num_clients(), params);
}

}  // namespace saer
