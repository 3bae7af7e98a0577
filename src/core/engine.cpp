#include "core/engine.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/round.hpp"
#include "core/workspace.hpp"
#include "graph/implicit_topology.hpp"
#include "util/parallel.hpp"

namespace saer {

namespace {

/// Selects Recv64: the deep-trace scan needs exact cumulative sums, and a
/// capacity at the u32 limit would break the saturating comparison.
bool needs_wide_recv_total(const ProtocolParams& params) {
  return params.deep_trace ||
         params.capacity() >=
             std::numeric_limits<std::uint32_t>::max();
}

/// Deep-trace scan: computes the paper's neighborhood maxima
/// (Definitions 3, 5, 6) from the plain per-server round counts and exact
/// cumulative received counts.  Three O(E) reductions -- one per metric --
/// with no shared mutable state: thread-local maxima folded by
/// parallel_reduce_max / parallel_reduce_max_u64, so the scan is
/// atomic-free end to end.  Only runs when deep_trace is requested (which
/// forces the Recv64 policy, so `recv.get` sums are exact).
struct DeepMetrics {
  double s_max = 0;
  double k_max = 0;
  std::uint64_t r_max_neighborhood = 0;
};

template <class Source, class Recv>
DeepMetrics deep_scan(const Source& src, const std::uint32_t* round_recv,
                      const Recv& recv, const std::uint8_t* flags,
                      std::uint64_t capacity) {
  DeepMetrics m;
  // K_t(v) normalizes the cumulative received count of N(v) by the capacity
  // mass capacity * |N(v)| (capacity = round(c*d) already folds d in).
  const double cap = static_cast<double>(capacity);
  m.s_max = parallel_reduce_max(0, src.num_clients(), [&](std::size_t vi) {
    const auto v = static_cast<NodeId>(vi);
    const auto nb = src.scan_row(v);
    std::uint64_t burned_count = 0;
    for (NodeId u : nb) burned_count += (flags[u] & kServerBurned) ? 1 : 0;
    return nb.empty() ? 0.0
                      : static_cast<double>(burned_count) /
                            static_cast<double>(nb.size());
  });
  m.k_max = parallel_reduce_max(0, src.num_clients(), [&](std::size_t vi) {
    const auto v = static_cast<NodeId>(vi);
    const auto nb = src.scan_row(v);
    std::uint64_t total = 0;
    for (NodeId u : nb) total += recv.get(u);
    return nb.empty() ? 0.0
                      : static_cast<double>(total) /
                            (cap * static_cast<double>(nb.size()));
  });
  m.r_max_neighborhood =
      parallel_reduce_max_u64(0, src.num_clients(), [&](std::size_t vi) {
        const auto v = static_cast<NodeId>(vi);
        std::uint64_t rnd = 0;
        for (NodeId u : src.scan_row(v)) rnd += round_recv[u];
        return rnd;
      });
  return m;
}

/// The batch engine: every ball is alive from round 1, and rounds of the
/// shared kernel (core/round.hpp) run until all settle or the round cap.
template <class Source, class BallClient, class Recv>
RunResult run_rounds(const Source& source, const ProtocolParams& params,
                     std::uint64_t total_balls, const BallClient& ball_client,
                     const Recv& recv, EngineWorkspace& ws) {
  const std::uint32_t max_rounds =
      params.max_rounds
          ? params.max_rounds
          : ProtocolParams::default_max_rounds(source.num_clients());

  RunResult res;
  res.total_balls = total_balls;
  if (params.store_assignment) res.assignment.assign(total_balls, kUnassigned);

  RoundKernel<Source, BallClient, Recv> kernel(source, ball_client, recv,
                                               params, ws);
  std::uint64_t burned_total = 0;
  std::uint32_t round = 0;
  // Round 1's alive list is the identity permutation, so it is never
  // materialized: the kernel reads a null list as ball i at position i.
  // Later rounds read the survivor list.
  std::size_t alive_count = total_balls;
  while (alive_count > 0 && round < max_rounds) {
    ++round;
    const std::size_t m = alive_count;
    const RoundBlockStats s = kernel.serve(
        round, round == 1 ? nullptr : ws.alive.data(), m, params.deep_trace);

    RoundStats stats;
    stats.round = round;
    stats.alive_begin = m;
    stats.submitted = m;
    stats.accepted = s.accepted;
    stats.newly_burned = s.newly_burned;
    stats.saturated = s.saturated;
    stats.r_max_server = s.r_max_server;
    res.work_messages += 2 * static_cast<std::uint64_t>(m);
    res.max_load = std::max(res.max_load, s.max_load);
    burned_total += s.newly_burned;
    stats.burned_total = burned_total;

    if (params.deep_trace) {
      const DeepMetrics dm = deep_scan(source, ws.round_recv.data(), recv,
                                       ws.flags.data(), params.capacity());
      stats.s_max = dm.s_max;
      stats.k_max = dm.k_max;
      stats.r_max_neighborhood = dm.r_max_neighborhood;
      kernel.reset_counts();
    }

    if (params.store_assignment) {
      kernel.emit(/*in_order=*/false,
                  [&res](BallId b, NodeId u) { res.assignment[b] = u; });
    } else {
      kernel.emit(/*in_order=*/false, [](BallId, NodeId) {});
    }
    alive_count = ws.alive.size();

    if (params.record_trace) res.trace.push_back(stats);
  }

  res.completed = alive_count == 0;
  res.rounds = round;
  res.alive_balls = alive_count;
  res.loads.assign(ws.accepted.begin(),
                   ws.accepted.begin() + source.num_servers());
  res.burned_servers = burned_total;
  kernel.restore_pristine();
  return res;
}

/// Dispatches the run on the cumulative-counter width (see Recv32/Recv64).
template <class Source, class BallClient>
RunResult run_dispatch(const Source& source, const ProtocolParams& params,
                       std::uint64_t total_balls,
                       const BallClient& ball_client, EngineWorkspace& ws) {
  const bool wide = needs_wide_recv_total(params);
  ws.ensure(source.num_servers(), total_balls, wide);
  // Install the workspace's persistent team for the whole run; every
  // parallel_for / reduction below dispatches to it.  Tiny runs stay
  // serial (width 1 -> no team) -- a scheduling decision only, results
  // are bit-identical for every width.
  const int width =
      total_balls >= kIntraRunMinBalls ? intra_run_threads() : 1;
  const TeamRegion region(ws.team(width));
  if (wide) {
    return run_rounds(source, params, total_balls, ball_client,
                      Recv64{ws.recv_total64.data()}, ws);
  }
  return run_rounds(source, params, total_balls, ball_client,
                    Recv32{ws.recv_total32.data()}, ws);
}

/// Shared audit over any ball -> client map.
template <class BallClient>
void check_result_balls(const BipartiteGraph& graph,
                        const ProtocolParams& params,
                        std::uint64_t total_balls,
                        const BallClient& ball_client,
                        const RunResult& result) {
  if (!params.store_assignment)
    throw std::invalid_argument(
        "check_result: run executed with store_assignment=false has no "
        "assignment to audit");
  const std::uint64_t cap = params.capacity();
  if (result.total_balls != total_balls)
    throw std::logic_error("check_result: total_balls mismatch");
  if (result.assignment.size() != total_balls)
    throw std::logic_error("check_result: assignment size mismatch");
  if (result.loads.size() != graph.num_servers())
    throw std::logic_error("check_result: loads size mismatch");

  std::vector<std::uint32_t> recomputed(graph.num_servers(), 0);
  std::uint64_t unassigned = 0;
  for (BallId b = 0; b < total_balls; ++b) {
    const NodeId u = result.assignment[b];
    if (u == kUnassigned) {
      ++unassigned;
      continue;
    }
    const NodeId v = ball_client(b);
    if (!graph.has_edge(v, u))
      throw std::logic_error("check_result: ball assigned outside N(v)");
    ++recomputed[u];
  }
  if (unassigned != result.alive_balls)
    throw std::logic_error("check_result: alive_balls mismatch");
  if (result.completed && unassigned != 0)
    throw std::logic_error("check_result: completed run left balls alive");

  std::uint64_t max_load = 0;
  for (NodeId u = 0; u < graph.num_servers(); ++u) {
    if (recomputed[u] != result.loads[u])
      throw std::logic_error("check_result: loads disagree with assignment");
    if (recomputed[u] > cap)
      throw std::logic_error("check_result: load exceeds capacity c*d");
    max_load = std::max<std::uint64_t>(max_load, recomputed[u]);
  }
  if (max_load != result.max_load)
    throw std::logic_error("check_result: max_load mismatch");

  if (!result.trace.empty()) {
    std::uint64_t work = 0, accepted = 0;
    for (const RoundStats& r : result.trace) {
      work += 2 * r.submitted;
      accepted += r.accepted;
    }
    if (work != result.work_messages)
      throw std::logic_error("check_result: work accounting mismatch");
    if (accepted != total_balls - unassigned)
      throw std::logic_error("check_result: accepted-ball accounting mismatch");
    if (result.trace.size() != result.rounds)
      throw std::logic_error("check_result: trace length mismatch");
  }
}

/// Ball -> client map for heterogeneous demands; validates demands <= d.
std::vector<NodeId> demand_ball_clients(const BipartiteGraph& graph,
                                        const ProtocolParams& params,
                                        const std::vector<std::uint32_t>& demands) {
  if (demands.size() != graph.num_clients())
    throw std::invalid_argument("run_protocol_demands: demands size mismatch");
  std::vector<NodeId> ball_client;
  for (NodeId v = 0; v < graph.num_clients(); ++v) {
    if (demands[v] > params.d)
      throw std::invalid_argument(
          "run_protocol_demands: demand exceeds request number d");
    for (std::uint32_t i = 0; i < demands[v]; ++i) ball_client.push_back(v);
  }
  return ball_client;
}

void require_reachable(const BipartiteGraph& graph,
                       const std::vector<NodeId>& ball_client) {
  for (const NodeId v : ball_client) {
    if (graph.client_degree(v) == 0)
      throw std::invalid_argument("run_protocol: client " + std::to_string(v) +
                                  " has no admissible server");
  }
}

/// Uniform-demand reachability: every client owns balls, so every client
/// needs a non-empty neighborhood (O(n), no ball map materialized).
void require_all_reachable(const BipartiteGraph& graph) {
  for (NodeId v = 0; v < graph.num_clients(); ++v) {
    if (graph.client_degree(v) == 0)
      throw std::invalid_argument("run_protocol: client " + std::to_string(v) +
                                  " has no admissible server");
  }
}

}  // namespace

RunResult run_protocol(const BipartiteGraph& graph, const ProtocolParams& params,
                       EngineWorkspace& workspace) {
  params.validate();
  require_all_reachable(graph);
  const std::uint64_t total_balls =
      static_cast<std::uint64_t>(graph.num_clients()) * params.d;
  return run_dispatch(StoredSource{graph}, params, total_balls,
                      UniformBallClient(params.d), workspace);
}

RunResult run_protocol(const BipartiteGraph& graph, const ProtocolParams& params) {
  EngineWorkspace workspace;
  return run_protocol(graph, params, workspace);
}

RunResult run_protocol(const ImplicitRegularTopology& topology,
                       const ProtocolParams& params,
                       EngineWorkspace& workspace) {
  params.validate();
  // Reachability is structural: every implicit client has degree() >= 1 by
  // construction, so the stored path's O(n) degree audit has nothing to do.
  const std::uint64_t total_balls =
      static_cast<std::uint64_t>(topology.num_clients()) * params.d;
  return run_dispatch(ImplicitSource{topology}, params, total_balls,
                      UniformBallClient(params.d), workspace);
}

RunResult run_protocol(const ImplicitRegularTopology& topology,
                       const ProtocolParams& params) {
  EngineWorkspace workspace;
  return run_protocol(topology, params, workspace);
}

RunResult run_protocol_demands(const BipartiteGraph& graph,
                               const ProtocolParams& params,
                               const std::vector<std::uint32_t>& demands,
                               EngineWorkspace& workspace) {
  params.validate();
  const std::vector<NodeId> ball_client =
      demand_ball_clients(graph, params, demands);
  require_reachable(graph, ball_client);
  return run_dispatch(StoredSource{graph}, params, ball_client.size(),
                      ExplicitBallClient{ball_client.data()}, workspace);
}

RunResult run_protocol_demands(const BipartiteGraph& graph,
                               const ProtocolParams& params,
                               const std::vector<std::uint32_t>& demands) {
  EngineWorkspace workspace;
  return run_protocol_demands(graph, params, demands, workspace);
}

void check_result(const BipartiteGraph& graph, const ProtocolParams& params,
                  const RunResult& result) {
  const std::uint64_t total_balls =
      static_cast<std::uint64_t>(graph.num_clients()) * params.d;
  check_result_balls(graph, params, total_balls, UniformBallClient(params.d),
                     result);
}

void check_result_demands(const BipartiteGraph& graph,
                          const ProtocolParams& params,
                          const std::vector<std::uint32_t>& demands,
                          const RunResult& result) {
  const std::vector<NodeId> ball_client =
      demand_ball_clients(graph, params, demands);
  check_result_balls(graph, params, ball_client.size(),
                     ExplicitBallClient{ball_client.data()}, result);
}

}  // namespace saer
