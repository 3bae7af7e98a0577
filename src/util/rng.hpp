#pragma once
// Random number generation for the simulation engines.
//
// Three layers:
//  * splitmix64      -- seeding / hashing primitive (Steele et al.).
//  * Xoshiro256ss    -- fast general-purpose stream generator with jump(),
//                       used wherever a stateful stream is convenient
//                       (graph generation, baseline algorithms).
//  * CounterRng      -- counter-based (stateless) generator: the value drawn
//                       for logical index (stream, step) is a pure function
//                       of (seed, stream, step).  The protocol engines use it
//                       so that results are bit-identical regardless of the
//                       thread schedule or thread count.
//
// All bounded sampling uses Lemire's nearly-divisionless method.

#include <array>
#include <cstdint>
#include <limits>

namespace saer {

/// One step of the splitmix64 sequence starting at `x`; also usable as a
/// 64-bit finalizer/mixer (bijective on uint64).
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Mixes two 64-bit values into one (non-commutative).
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t a, std::uint64_t b) noexcept {
  return splitmix64(a ^ (0x9e3779b97f4a7c15ULL + (b << 6) + (b >> 2)));
}

/// xoshiro256** by Blackman & Vigna: 256-bit state, period 2^256-1,
/// passes BigCrush.  Satisfies UniformRandomBitGenerator.
class Xoshiro256ss {
 public:
  using result_type = std::uint64_t;

  Xoshiro256ss() noexcept : Xoshiro256ss(0xdeadbeefcafef00dULL) {}
  explicit Xoshiro256ss(std::uint64_t seed) noexcept { reseed(seed); }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Reinitializes the state from a 64-bit seed via splitmix64 expansion.
  void reseed(std::uint64_t seed) noexcept {
    std::uint64_t x = seed;
    for (auto& w : state_) {
      x = splitmix64(x);
      w = x;
    }
    // All-zero state is unreachable from splitmix64 expansion, but keep the
    // generator well-defined for any direct state manipulation.
    if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Jump ahead by 2^128 steps: used to derive independent parallel streams.
  void jump() noexcept;

  /// Returns a generator `k` jumps ahead of `*this` (stream splitting).
  [[nodiscard]] Xoshiro256ss split(unsigned k) const noexcept {
    Xoshiro256ss g = *this;
    for (unsigned i = 0; i <= k; ++i) g.jump();
    return g;
  }

  /// Uniform in [0, bound) by Lemire's method. bound must be > 0.
  std::uint64_t bounded(std::uint64_t bound) noexcept {
    return bounded_from(operator()(), bound, *this);
  }

  /// Uniform double in [0, 1) with 53 bits of precision.
  double uniform01() noexcept {
    return static_cast<double>(operator()() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform01();
  }

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p) noexcept { return uniform01() < p; }

  /// Exposes raw state (tests only).
  [[nodiscard]] const std::array<std::uint64_t, 4>& state() const noexcept {
    return state_;
  }

  friend bool operator==(const Xoshiro256ss& a, const Xoshiro256ss& b) noexcept {
    return a.state_ == b.state_;
  }

  /// Lemire bounded rejection step shared with CounterRng: maps `word`
  /// to [0,bound), drawing more words from `gen` in the rare rejection case.
  template <class Gen>
  static std::uint64_t bounded_from(std::uint64_t word, std::uint64_t bound,
                                    Gen& gen) noexcept {
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpedantic"
    using u128 = unsigned __int128;
#pragma GCC diagnostic pop
    u128 m = static_cast<u128>(word) * static_cast<u128>(bound);
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        m = static_cast<u128>(gen()) * static_cast<u128>(bound);
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  std::array<std::uint64_t, 4> state_{};
};

/// Counter-based generator: `at(stream, step)` is a pure function of the
/// seed, so any parallel schedule that assigns the same logical indices
/// produces the same randomness.  Quality comes from the splitmix64
/// finalizer applied to a distinct odd-offset counter per (stream, step).
class CounterRng {
 public:
  CounterRng() noexcept : seed_(0) {}
  explicit CounterRng(std::uint64_t seed) noexcept : seed_(splitmix64(seed)) {}

  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  /// Raw 64-bit draw for logical coordinates (stream, step).
  [[nodiscard]] std::uint64_t at(std::uint64_t stream, std::uint64_t step) const noexcept {
    return splitmix64(seed_ ^ mix64(stream, step));
  }

  /// Uniform in [0, bound) for coordinates (stream, step); bound > 0.
  /// Rejection draws use sub-steps derived from the same coordinates.
  [[nodiscard]] std::uint64_t bounded(std::uint64_t stream, std::uint64_t step,
                                      std::uint64_t bound) const noexcept {
    SubStream sub{this, stream, step};
    return Xoshiro256ss::bounded_from(at(stream, step), bound, sub);
  }

  /// Uniform double in [0,1) for coordinates (stream, step).
  [[nodiscard]] double uniform01(std::uint64_t stream, std::uint64_t step) const noexcept {
    return static_cast<double>(at(stream, step) >> 11) * 0x1.0p-53;
  }

 private:
  struct SubStream {
    const CounterRng* parent;
    std::uint64_t stream;
    std::uint64_t step;
    std::uint64_t sub = 0;
    std::uint64_t operator()() noexcept {
      return parent->at(stream ^ 0x5bf0'3635'dcf6'e2c5ULL, mix64(step, ++sub));
    }
  };
  std::uint64_t seed_;
};

/// Derives the i-th replication seed from a master seed (stable mapping used
/// by the experiment harness so replications are independent yet reproducible).
[[nodiscard]] constexpr std::uint64_t replication_seed(std::uint64_t master,
                                                       std::uint64_t rep) noexcept {
  return mix64(splitmix64(master), 0x9d1c'a2bf'0d5b'77a1ULL + rep);
}

}  // namespace saer
