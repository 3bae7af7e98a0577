#pragma once
// The round kernel: one synchronous round of SAER or RAES (Algorithm 1)
// over a workspace, shared by both engines of the protocol --
//
//   * run_rounds (core/engine.cpp), the batch engine behind run_protocol
//     and every sweep: all balls start in round 1, and the loop runs until
//     they settle or the round cap;
//   * DynamicEngine::step (core/dynamic.cpp), the service engine behind
//     `saer serve` and run_dynamic: clients arrive between rounds and
//     servers may fail.
//
// A round is three passes: Phase-1 scatter (every alive ball samples a
// uniform neighbor of its client, counted by the atomic-free radix merge
// of core/scatter.hpp), Phase-2 serve (every server that received a ball
// applies the acceptance rule), and the emit pass (every ball reads its
// target's verdict).  Output-sensitive: in sparse rounds (alive count
// below n_servers / 8) the merge records the deduplicated per-block sets
// of servers that received at least one ball, and the serve and reset
// passes visit only those sets, so a late or quiet round costs
// O(alive + touched) rather than O(n_servers).  Dense rounds keep the
// block-range scans, which beat scattered accesses when most servers are
// touched anyway.  Every per-server verdict is computed identically on
// either path, and every cross-server total is an exact integer fold, so
// results are bit-identical for either path, any layout and any width.
//
// The engines differ only in what they pass in: the neighborhood source,
// the ball -> client map, the cumulative-counter width, whether failed
// servers exist (a compile-time flag, so the batch instruction stream has
// no failure test), and what happens to an accepted ball.  All of them are
// template parameters; nothing per-ball or per-server goes through a
// type-erased call.

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <span>
#include <type_traits>
#include <vector>

#include "core/protocol.hpp"
#include "core/scatter.hpp"
#include "core/workspace.hpp"
#include "graph/bipartite_graph.hpp"
#include "graph/implicit_topology.hpp"
#include "util/fastdiv.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace saer {

/// Alive balls below which a round runs serially, skipping the intra-run
/// team: a round this small finishes in the time the team's fork-join
/// barriers would cost.  Purely a scheduling decision -- results are
/// bit-identical either way.
inline constexpr std::uint64_t kIntraRunMinBalls = 1ULL << 15;

// ---------------------------------------------------------------------------
// Per-server cumulative counter policies (Definition 3 state).
//
// recv_total is never part of a result; it is only observed through
//   (a) the SAER burn comparison `recv_total > cap` on a not-yet-burned
//       server, and (b) the exact neighborhood sums of the batch engine's
//       deep-trace scan.
// Recv32 exploits (a): a saturating u32 add keeps the comparison exact --
// before a server burns its total is <= cap < 2^32-1, and once an add
// wraps or exceeds cap the saturated value is still > cap, so the verdict
// (and every downstream bit) is identical to exact u64 arithmetic.  After
// the burn the value is never read again.  Runs that need (b), or a
// capacity too large for the u32 comparison, select Recv64.
// ---------------------------------------------------------------------------

struct Recv32 {
  std::uint32_t* v;
  void add(NodeId u, std::uint32_t rr) const {
    const std::uint32_t sum = v[u] + rr;
    v[u] = sum < v[u] ? std::numeric_limits<std::uint32_t>::max() : sum;
  }
  [[nodiscard]] std::uint64_t get(NodeId u) const { return v[u]; }
  void clear(NodeId u) const { v[u] = 0; }
};

struct Recv64 {
  std::uint64_t* v;
  void add(NodeId u, std::uint32_t rr) const { v[u] += rr; }
  [[nodiscard]] std::uint64_t get(NodeId u) const { return v[u]; }
  void clear(NodeId u) const { v[u] = 0; }
};

// ---------------------------------------------------------------------------
// Neighborhood sources.  Every place a round touches topology -- the
// Phase-1 samplers, the round-1 client-major sampler, and the deep-trace
// scan -- goes through one of these two policies:
//
//   StoredSource    wraps a BipartiteGraph; a client's row is its stable
//                   CSR span, so samplers hand the scatter pipeline raw
//                   row addresses (`base + k`).
//   ImplicitSource  wraps an ImplicitRegularTopology; a client's row is
//                   regenerated on demand (O(Delta) counter-RNG draws, no
//                   edge arrays) into a per-chunk workspace buffer, and --
//                   because scatter_count dereferences an addr_of result up
//                   to kScatterPipeline calls later, after the buffer may
//                   hold a different client's row -- the sampled server is
//                   resolved immediately and parked in a pipeline-deep ring
//                   whose slot is what the scatter dereferences.
//
// Both expose the same cursor shape (load a client, address draw k), so
// the kernel instantiates once per source and the instruction stream of
// the stored path is unchanged.  The implicit rows are regenerated sorted
// and equal to the materialized twin's CSR rows element for element, so
// the draw `rng.bounded(ball, round, deg)` selects the identical server
// either way: runs are bit-identical, which the golden twin tests enforce
// across team widths and protocols.
// ---------------------------------------------------------------------------

struct StoredSource {
  const BipartiteGraph& graph;

  [[nodiscard]] NodeId num_clients() const { return graph.num_clients(); }
  [[nodiscard]] NodeId num_servers() const { return graph.num_servers(); }

  /// Sequential sampling cursor: caches one client's CSR row.  Addresses
  /// point into the graph's adjacency and outlive the scatter pipeline
  /// trivially.
  struct Cursor {
    const BipartiteGraph* g;
    const NodeId* base = nullptr;
    std::uint32_t deg = 0;

    void load(NodeId v, std::size_t /*pos*/) {
      const auto nb = g->client_neighbors(v);
      base = nb.data();
      deg = static_cast<std::uint32_t>(nb.size());
    }
    [[nodiscard]] const NodeId* addr(std::size_t /*pos*/,
                                     std::uint64_t k) const {
      return base + k;
    }
  };
  [[nodiscard]] Cursor cursor(const ScatterLayout&, EngineWorkspace&) const {
    return Cursor{&graph};
  }

  /// Deep-trace row access (invoked from parallel_reduce workers).
  [[nodiscard]] std::span<const NodeId> scan_row(NodeId v) const {
    return graph.client_neighbors(v);
  }
};

struct ImplicitSource {
  const ImplicitRegularTopology& topo;

  [[nodiscard]] NodeId num_clients() const { return topo.num_clients(); }
  [[nodiscard]] NodeId num_servers() const { return topo.num_servers(); }

  /// Regenerating cursor.  scatter_count copies its sampler per chunk and
  /// feeds each copy its chunk's positions in ascending order, so the copy
  /// binds to its chunk's workspace row buffer on first use (ci = pos /
  /// chunk_size) -- concurrent chunks never share a buffer, and reuse
  /// across rounds/runs means steady-state regeneration allocates nothing.
  struct Cursor {
    const ImplicitRegularTopology* topo;
    EngineWorkspace::ImplicitRow* rows;  ///< ws.implicit_rows.data()
    std::size_t chunk_size;
    std::vector<NodeId>* row = nullptr;  ///< this copy's chunk buffer
    std::uint32_t deg = 0;
    /// Resolved samples, kScatterPipeline deep (see core/scatter.hpp): a
    /// slot is overwritten only after every dereference of its previous
    /// occupant has happened.
    std::array<NodeId, kScatterPipeline> ring{};

    void load(NodeId v, std::size_t pos) {
      if (row == nullptr) row = &rows[pos / chunk_size].v;
      topo->neighbors(v, *row);
      deg = topo->degree();
    }
    [[nodiscard]] const NodeId* addr(std::size_t pos, std::uint64_t k) {
      NodeId& slot = ring[pos % kScatterPipeline];
      slot = (*row)[k];
      return &slot;
    }
  };
  [[nodiscard]] Cursor cursor(const ScatterLayout& layout,
                              EngineWorkspace& ws) const {
    return Cursor{&topo, ws.implicit_rows.data(), layout.chunk_size};
  }

  /// Deep-trace row access: regenerates into a per-thread scratch row (the
  /// reduction lambdas are shared by-ref across team workers, so per-call
  /// state must be thread-local).  The span is valid until the same thread
  /// scans its next client, which is exactly the reduction body's lifetime.
  [[nodiscard]] std::span<const NodeId> scan_row(NodeId v) const {
    thread_local std::vector<NodeId> scratch;
    topo.neighbors(v, scratch);
    return {scratch.data(), scratch.size()};
  }
};

// ---------------------------------------------------------------------------
// Ball -> client maps.  The uniform-demand map is implicit (ball b belongs
// to client b / d, computed with an exact reciprocal) so no engine
// materializes an O(n*d) vector; the heterogeneous-demand entry point
// keeps its explicit map.
// ---------------------------------------------------------------------------

struct UniformBallClient {
  FastDiv32 div;
  explicit UniformBallClient(std::uint32_t d) : div(d) {}
  [[nodiscard]] NodeId operator()(BallId b) const {
    return static_cast<NodeId>(div.quotient(b));
  }
};

struct ExplicitBallClient {
  const NodeId* map;
  [[nodiscard]] NodeId operator()(BallId b) const { return map[b]; }
};

/// Round-1 sampler for the uniform map: ball b == position i, and positions
/// arrive in ascending order (per chunk), so the client advances every d
/// balls with no division and one cursor load per client.  Same draws,
/// same targets -- just the cheapest way to walk an identity round.
template <class Cursor>
struct UniformRound1Sampler {
  const CounterRng& rng;
  std::uint32_t d;
  Cursor cursor;
  NodeId v = 0;
  std::uint32_t used = 0;
  bool primed = false;

  const NodeId* operator()(std::size_t i) {
    if (!primed) {
      primed = true;
      v = static_cast<NodeId>(i / d);
      used = static_cast<std::uint32_t>(i - static_cast<std::uint64_t>(v) * d);
      cursor.load(v, i);
    } else if (used == d) {
      ++v;
      used = 0;
      cursor.load(v, i);
    }
    ++used;
    return cursor.addr(i, rng.bounded(i, 1, cursor.deg));
  }
};

template <class Cursor>
UniformRound1Sampler(const CounterRng&, std::uint32_t, Cursor)
    -> UniformRound1Sampler<Cursor>;

/// The round kernel.  An engine constructs one over its workspace (already
/// grown by EngineWorkspace::ensure) and, per round, calls serve() and then
/// emit(); the batch engine's deep-trace scan sits between the two.
/// `kFailures` admits failed servers (the kServerFailed bit, set by the
/// dynamic engine's churn pass): a failed server adds the round's count to
/// its cumulative total and then rejects, before the SAER/RAES rule.
template <class Source, class BallClient, class Recv, bool kFailures = false>
class RoundKernel {
 public:
  RoundKernel(const Source& source, const BallClient& ball_client,
              const Recv& recv, const ProtocolParams& params,
              EngineWorkspace& ws)
      : source_(source),
        ball_client_(ball_client),
        recv_(recv),
        params_(params),
        ws_(ws) {}

  /// Phases 1 and 2 of round `round` (Algorithm 1, lines 2-17) over the
  /// alive positions [0, m) of `balls` (nullptr: the identity list of a
  /// batch run's first round).  Leaves each position's server in ws.target
  /// and each touched server's verdict in its kServerAccepted bit, and
  /// returns the round's totals.  With `keep_counts` the per-server round
  /// counts survive for an inspection pass, and reset_counts() must follow
  /// before the next round.
  RoundBlockStats serve(std::uint32_t round, const BallId* balls,
                        std::size_t m, bool keep_counts) {
    const NodeId n_servers = source_.num_servers();
    balls_ = balls;
    m_ = m;
    sparse_ = m < static_cast<std::size_t>(n_servers / 8);
    used_dense_ = used_dense_ || !sparse_;
    layout_ = scatter_layout(m, n_servers,
                             static_cast<std::size_t>(parallel_width()));
    ws_.prepare_round(layout_);
    std::uint32_t* const round_recv = ws_.round_recv.data();
    std::uint32_t* const accepted = ws_.accepted.data();
    std::uint8_t* const flags = ws_.flags.data();
    const bool sparse = sparse_;
    // The scalars the loops read are copied into locals: the flag stores
    // are char writes, which may alias any member and would force a
    // reload of it per ball or server.
    const CounterRng rng(params_.seed);
    const BallClient& ball_client = ball_client_;
    const Recv recv = recv_;
    const std::uint64_t cap = params_.capacity();
    const Protocol protocol = params_.protocol;

    // The Phase-2 serve/reset of a block rides the block's merge task (the
    // `serve_block` epilogue below), so servers are judged while their
    // counters are still hot in the merging worker's cache and no barrier
    // separates the phases.  In sparse rounds the merge's 0->1 transitions
    // emit the touch-lists and extend the dirty set (servers whose state
    // must be re-zeroed before workspace reuse) as a side effect.
    if (sparse) {
      for (std::size_t bl = 0; bl < layout_.n_blocks; ++bl)
        ws_.touched_blocks[bl].clear();
    }
    // The client's neighborhood is cached across consecutive balls of the
    // same client (uniform demand visits each client's d balls back to
    // back), so the cursor load is paid once per client, not per ball.
    const auto sample_addr =
        [&, cursor = source_.cursor(layout_, ws_),
         cached_v = kUnassigned](std::size_t i) mutable {
          const BallId b = balls ? balls[i] : static_cast<BallId>(i);
          const NodeId v = ball_client(b);
          if (v != cached_v) {
            cached_v = v;
            cursor.load(v, i);
          }
          return cursor.addr(i, rng.bounded(b, round, cursor.deg));
        };
    NodeId* const target = ws_.target.data();
    const auto on_target = [target](std::size_t i, NodeId u) {
      target[i] = u;
    };
    const auto on_first_touch = [&](std::size_t bl, NodeId u) {
      ws_.touched_blocks[bl].push_back(u);
      if (!(flags[u] & kServerDirty)) {
        flags[u] |= kServerDirty;
        ws_.dirty_blocks[bl].push_back(u);
      }
    };

    // Phase 2: servers accept or reject the whole round (Algorithm 1,
    // lines 6-17).  Each block serves its own servers and folds its round
    // statistics into a private RoundBlockStats slot; sparse rounds skip
    // servers that received nothing (no ball will read their verdict).
    // Inlined into each block's loop: a call per served server costs more
    // than the verdict itself.
    const auto serve_one = [&](NodeId ui, std::uint32_t rr, RoundBlockStats& s)
        __attribute__((always_inline)) {
      std::uint8_t f = flags[ui] & static_cast<std::uint8_t>(~kServerAccepted);
      recv.add(ui, rr);  // counts toward Definition 3 regardless of verdict
      if (rr > s.r_max_server) s.r_max_server = rr;
      if (kFailures && (f & kServerFailed)) {
        ++s.saturated;  // a failed server answers nothing
      } else if (protocol == Protocol::kSaer) {
        if (f & kServerBurned) {
          ++s.saturated;
        } else if (recv.get(ui) > cap) {
          f |= kServerBurned;
          ++s.newly_burned;
          ++s.saturated;
        } else {
          accepted[ui] += rr;
          s.accepted += rr;
          s.max_load = std::max<std::uint64_t>(s.max_load, accepted[ui]);
          f |= kServerAccepted;
        }
      } else {  // RAES: reject only if accepting would exceed capacity
        if (accepted[ui] + rr > cap) {
          ++s.saturated;
        } else {
          accepted[ui] += rr;
          s.accepted += rr;
          s.max_load = std::max<std::uint64_t>(s.max_load, accepted[ui]);
          f |= kServerAccepted;
        }
      }
      flags[ui] = f;
    };
    // Unless the caller keeps the counts, the counter reset rides along
    // with the verdict pass (the cache lines are hot).
    const bool fused_reset = !keep_counts;
    const auto serve_block = [&](std::size_t bl) {
      RoundBlockStats s;
      if (sparse) {
        for (const NodeId ui : ws_.touched_blocks[bl]) {
          serve_one(ui, round_recv[ui], s);
          if (fused_reset) round_recv[ui] = 0;
        }
      } else {
        const std::size_t hi = layout_.block_end(bl, n_servers);
        for (std::size_t ui = layout_.block_begin(bl); ui < hi; ++ui) {
          const std::uint32_t rr = round_recv[ui];
          if (rr != 0) {
            serve_one(static_cast<NodeId>(ui), rr, s);
            if (fused_reset) round_recv[ui] = 0;
          }
        }
      }
      ws_.block_stats[bl] = s;
    };
    // Single-chunk rounds call the count-only scatter and serve inline
    // afterwards: fusing serve_block into the scatter instantiation is
    // only useful when blocks merge concurrently, and keeping the serial
    // 3-sweep pipeline in its own lean instantiation preserves its
    // codegen (measured ~10% on small-n runs).
    const auto scatter_round = [&](auto&& sampler) {
      if (layout_.n_chunks == 1) {
        scatter_count(layout_, ws_.scatter, m, round_recv, sparse, sampler,
                      on_target, on_first_touch);
        serve_block(0);
      } else {
        scatter_count(layout_, ws_.scatter, m, round_recv, sparse, sampler,
                      on_target, on_first_touch, serve_block);
      }
    };
    if constexpr (std::is_same_v<BallClient, UniformBallClient>) {
      if (balls == nullptr) {
        scatter_round(UniformRound1Sampler{rng, params_.d,
                                           source_.cursor(layout_, ws_)});
      } else {
        scatter_round(sample_addr);
      }
    } else {
      scatter_round(sample_addr);
    }

    RoundBlockStats total;
    for (std::size_t bl = 0; bl < layout_.n_blocks; ++bl) {
      const RoundBlockStats& s = ws_.block_stats[bl];
      total.accepted += s.accepted;
      total.newly_burned += s.newly_burned;
      total.saturated += s.saturated;
      total.r_max_server = std::max(total.r_max_server, s.r_max_server);
      total.max_load = std::max(total.max_load, s.max_load);
    }
    return total;
  }

  /// Zeroes the round counts a serve(..., keep_counts = true) left behind
  /// (only touched servers are non-zero in a sparse round).
  void reset_counts() {
    std::uint32_t* const round_recv = ws_.round_recv.data();
    const NodeId n_servers = source_.num_servers();
    parallel_for(0, layout_.n_blocks, [&](std::size_t bl) {
      if (sparse_) {
        for (const NodeId ui : ws_.touched_blocks[bl]) round_recv[ui] = 0;
      } else {
        std::fill(round_recv + layout_.block_begin(bl),
                  round_recv + layout_.block_end(bl, n_servers), 0u);
      }
    });
  }

  /// Phase 2 epilogue: clients read the Boolean verdicts (Algorithm 1,
  /// lines 18-23).  on_accept(b, u) runs for every ball b its server u
  /// accepted; the others survive into ws.alive for the next round, in
  /// ball order.  With `in_order` the pass runs on the calling thread in
  /// alive order; otherwise chunks emit into their own buffers on the
  /// team, concatenated in chunk order (the same list), and on_accept must
  /// tolerate concurrent calls for distinct balls.
  template <class OnAccept>
  void emit(bool in_order, OnAccept&& on_accept) {
    const NodeId* const target = ws_.target.data();
    const std::uint8_t* const flags = ws_.flags.data();
    const auto emit_with = [&](std::vector<BallId>& survivors, std::size_t lo,
                               std::size_t hi, auto get_ball) {
      for (std::size_t i = lo; i < hi; ++i) {
        const BallId b = get_ball(i);
        const NodeId u = target[i];
        if (flags[u] & kServerAccepted) {
          on_accept(b, u);
        } else {
          survivors.push_back(b);
        }
      }
    };
    const BallId* const balls = balls_;
    const auto emit_range = [&](std::vector<BallId>& survivors,
                                std::size_t lo, std::size_t hi) {
      if (balls) {
        emit_with(survivors, lo, hi,
                  [balls](std::size_t i) { return balls[i]; });
      } else {
        emit_with(survivors, lo, hi,
                  [](std::size_t i) { return static_cast<BallId>(i); });
      }
    };
    std::vector<BallId>& next_alive = ws_.next_alive;
    next_alive.clear();
    if (in_order || layout_.n_chunks == 1) {
      emit_range(next_alive, 0, m_);
    } else {
      parallel_for(0, layout_.n_chunks, [&](std::size_t ci) {
        std::vector<BallId>& survivors = ws_.alive_chunks[ci];
        survivors.clear();
        const std::size_t lo = ci * layout_.chunk_size;
        emit_range(survivors, lo, std::min(m_, lo + layout_.chunk_size));
      });
      for (std::size_t ci = 0; ci < layout_.n_chunks; ++ci) {
        const std::vector<BallId>& survivors = ws_.alive_chunks[ci];
        next_alive.insert(next_alive.end(), survivors.begin(),
                          survivors.end());
      }
    }
    ws_.alive.swap(next_alive);
  }

  /// Restores the workspace's pristine invariant after the last round.
  /// Round counts are already zero, so only the cumulative state remains.
  /// Dense rounds don't track dirty servers, so any dense round forces the
  /// full-range clears (parallel over fixed server ranges, three fills per
  /// range so each vectorizes); all-sparse runs pay only O(dirty),
  /// parallel over the per-block dirty lists (each list owns its block's
  /// servers, so the clears never race).
  void restore_pristine() {
    std::uint32_t* const accepted = ws_.accepted.data();
    std::uint8_t* const flags = ws_.flags.data();
    if (used_dense_) {
      constexpr std::size_t kRange = std::size_t{1} << 16;
      const std::size_t n = source_.num_servers();
      parallel_for(0, (n + kRange - 1) / kRange, [&](std::size_t r) {
        const std::size_t lo = r * kRange;
        const std::size_t hi = std::min(n, lo + kRange);
        std::fill(recv_.v + lo, recv_.v + hi, 0u);
        std::fill(accepted + lo, accepted + hi, 0u);
        std::fill(flags + lo, flags + hi, std::uint8_t{0});
      });
      for (std::vector<NodeId>& block : ws_.dirty_blocks) block.clear();
    } else {
      const auto clear = [&](NodeId u) {
        recv_.clear(u);
        accepted[u] = 0;
        flags[u] = 0;
      };
      parallel_for(0, ws_.dirty_blocks.size(), [&](std::size_t bl) {
        std::vector<NodeId>& block = ws_.dirty_blocks[bl];
        for (const NodeId u : block) clear(u);
        block.clear();
      });
    }
  }

 private:
  const Source& source_;
  BallClient ball_client_;
  Recv recv_;
  const ProtocolParams& params_;
  EngineWorkspace& ws_;

  // The current round, as serve() left it for reset_counts() and emit().
  ScatterLayout layout_;
  const BallId* balls_ = nullptr;
  std::size_t m_ = 0;
  bool sparse_ = false;
  bool used_dense_ = false;
};

}  // namespace saer
