#pragma once
// Intra-run parallel loops for the engines.  parallel_for and the
// reductions run on the thread-local active ThreadTeam (see TeamRegion
// below) -- the engine's persistent fork-join team, installed for the
// duration of one protocol run or service step.  Worker w always executes
// the same contiguous index slice [len*w/W, len*(w+1)/W) of a loop, so for
// a fixed round layout a scatter block is merged, served, and reset by the
// same OS thread every round (cache/NUMA affinity by construction).  With
// no team active -- width 1, or a run below the engines' serial threshold
// -- a loop runs serially on the calling thread.
//
// Both produce bit-identical results for any width because every
// shared-output fold in the engines is an order-independent exact integer
// (or max) reduction and all randomness is counter-based (util/rng.hpp).
//
// Thread arbitration: configured_threads() is the process-wide budget
// (set_thread_count, else OMP_NUM_THREADS, else hardware concurrency);
// intra_run_threads() additionally respects the cap installed by
// schedulers that already parallelize ACROSS runs (IntraRunThreadCap in
// sim/sweep.cpp clamps it to max(1, budget / active workers) so `--jobs`
// composes with run-level parallelism instead of oversubscribing).

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/thread_pool.hpp"

namespace saer {

/// Default thread budget: OMP_NUM_THREADS when set, else the hardware
/// concurrency.
[[nodiscard]] int hardware_threads() noexcept;

/// Overrides the thread count for subsequent parallel loops (0 = default).
void set_thread_count(int threads) noexcept;
[[nodiscard]] int configured_threads() noexcept;

/// Caps the threads any single run's round loop may use (0 lifts the cap).
/// Set by schedulers that already fan runs out across workers; prefer the
/// RAII IntraRunThreadCap.
void set_intra_run_thread_cap(int cap) noexcept;
[[nodiscard]] int intra_run_thread_cap() noexcept;

/// Threads one run's round loop should use right now:
/// min(configured_threads(), cap) when a cap is installed, else
/// configured_threads().  Always >= 1.
[[nodiscard]] int intra_run_threads() noexcept;

/// RAII intra-run thread cap (restores the previous cap on destruction).
class IntraRunThreadCap {
 public:
  explicit IntraRunThreadCap(int cap) noexcept : prev_(intra_run_thread_cap()) {
    set_intra_run_thread_cap(cap);
  }
  ~IntraRunThreadCap() { set_intra_run_thread_cap(prev_); }
  IntraRunThreadCap(const IntraRunThreadCap&) = delete;
  IntraRunThreadCap& operator=(const IntraRunThreadCap&) = delete;

 private:
  int prev_;
};

/// The ThreadTeam parallel loops on this thread currently dispatch to
/// (null when none).  Swapped via TeamRegion.
[[nodiscard]] ThreadTeam* active_team() noexcept;
ThreadTeam* exchange_active_team(ThreadTeam* team) noexcept;

/// Scoped activation: while alive, parallel_for / parallel_reduce_* called
/// on THIS thread run on `team` (null = serial).  The
/// engines install one around a run; the loops themselves clear it while
/// executing the caller's slice so loop bodies can never re-enter the team.
class TeamRegion {
 public:
  explicit TeamRegion(ThreadTeam* team) noexcept
      : prev_(exchange_active_team(team)) {}
  ~TeamRegion() { exchange_active_team(prev_); }
  TeamRegion(const TeamRegion&) = delete;
  TeamRegion& operator=(const TeamRegion&) = delete;

 private:
  ThreadTeam* prev_;
};

/// Width the NEXT parallel loop on this thread will fan out to: the active
/// team's size, else 1.  scatter_layout sizes its
/// chunk partition with this.
[[nodiscard]] int parallel_width() noexcept;

namespace parallel_detail {
/// Cache-line-padded slot, so per-worker partials (and other per-task
/// buffers) never share a line.
template <class T>
struct alignas(64) Padded {
  T v{};
};

/// Runs slice(w, lo, hi) over [begin, end): on the active team, worker w
/// gets its slice of the affinity contract documented on ThreadTeam;
/// without one, slice(0, begin, end) runs once on the calling thread.
/// The serial call stays out of line, as a parallel region would be, so a
/// width-1 loop does not reshape the code of the engine loop around it.
template <class Slice>
[[gnu::noinline]] void run_serial(Slice& slice, std::size_t begin,
                                  std::size_t end) {
  slice(0u, begin, end);
}

template <class Slice>
void for_slices(std::size_t begin, std::size_t end, Slice&& slice) {
  ThreadTeam* team = active_team();
  if (team == nullptr || end - begin < 2) {
    run_serial(slice, begin, end);
    return;
  }
  const std::size_t len = end - begin;
  const unsigned workers = team->size();
  const TeamRegion no_reentry(nullptr);
  team->run([&](unsigned w) {
    slice(w, begin + len * w / workers, begin + len * (w + 1) / workers);
  });
}

/// Folds body(i) over [begin, end) with `combine` (associative and
/// commutative, identity T{}): one partial per worker, then the partials
/// in worker order.
template <class T, class Body, class Combine>
T reduce(std::size_t begin, std::size_t end, Body& body, Combine combine) {
  if (end <= begin) return T{};
  const ThreadTeam* team = active_team();
  std::vector<Padded<T>> parts(team != nullptr ? team->size() : 1);
  for_slices(begin, end, [&](unsigned w, std::size_t lo, std::size_t hi) {
    T local{};
    for (std::size_t i = lo; i < hi; ++i) local = combine(local, body(i));
    parts[w].v = local;
  });
  T total{};
  for (const Padded<T>& part : parts) total = combine(total, part.v);
  return total;
}
}  // namespace parallel_detail

/// Applies body(i) for i in [begin, end) with static scheduling.
template <class Body>
void parallel_for(std::size_t begin, std::size_t end, Body&& body) {
  if (end <= begin) return;
  parallel_detail::for_slices(
      begin, end, [&](unsigned, std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) body(i);
      });
}

/// Sum-reduction over [begin, end): result is sum of body(i) as uint64.
template <class Body>
std::uint64_t parallel_reduce_sum(std::size_t begin, std::size_t end,
                                  Body&& body) {
  return parallel_detail::reduce<std::uint64_t>(
      begin, end, body, [](std::uint64_t a, std::uint64_t b) { return a + b; });
}

/// Max-reduction over [begin, end) of body(i) as uint64 (exact -- no
/// float conversion, no atomics; used by the deep-trace scan's integral
/// neighborhood maxima).
template <class Body>
std::uint64_t parallel_reduce_max_u64(std::size_t begin, std::size_t end,
                                      Body&& body) {
  return parallel_detail::reduce<std::uint64_t>(
      begin, end, body,
      [](std::uint64_t a, std::uint64_t b) { return b > a ? b : a; });
}

/// Max-reduction over [begin, end) of body(i) as double (0 when empty).
template <class Body>
double parallel_reduce_max(std::size_t begin, std::size_t end, Body&& body) {
  return parallel_detail::reduce<double>(
      begin, end, body, [](double a, double b) { return b > a ? b : a; });
}

}  // namespace saer
