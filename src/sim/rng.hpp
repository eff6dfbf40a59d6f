// Deterministic pseudo-random number generation.
//
// Every stochastic experiment takes an explicit 64-bit seed so that runs
// are exactly reproducible.  The generator is xoshiro256** (Blackman &
// Vigna), which is fast, has 256 bits of state and passes BigCrush; the
// standard <random> engines are avoided because their distributions are
// not reproducible across standard-library implementations.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "sim/time.hpp"

namespace ccredf::sim {

class StreamKey;

class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform in [0, bound), bias-free (rejection sampling).
  std::uint64_t uniform_u64(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform real in [0, 1).
  double uniform01();

  /// Uniform real in [lo, hi).
  double uniform_real(double lo, double hi);

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p);

  /// Exponentially distributed value with the given mean (> 0).
  double exponential(double mean);

  /// Exponentially distributed duration with the given mean.
  Duration exponential(Duration mean);

  /// Normally distributed value (Box-Muller, one value per call).
  double normal(double mu, double sigma);

  /// Uniformly random index permutation of size n (Fisher-Yates).
  std::vector<std::size_t> permutation(std::size_t n);

  /// Derives an independent child generator (for per-node streams).
  Rng fork();

  /// A generator for substream (a, b) of `base` (see stream_seed).
  static Rng stream(std::uint64_t base, std::uint64_t a, std::uint64_t b) {
    return Rng(stream_seed(base, a, b));
  }

  /// SplitMix-style counter-based stream derivation: maps (base, a, b) to
  /// a seed whose generators are statistically independent across distinct
  /// (a, b) pairs.  Unlike fork(), derivation is stateless, so parallel
  /// workers can key their streams on (grid-point index, repetition)
  /// without any shared generator -- the foundation of the sweep runner's
  /// thread-count-independent determinism.
  static std::uint64_t stream_seed(std::uint64_t base, std::uint64_t a,
                                   std::uint64_t b) {
    return absorb_b(absorb_a(absorb_base(base), a), b).h;
  }

 private:
  // The stream derivation, laid out once for stream_seed and StreamKey.
  friend class StreamKey;

  /// stream_seed's running state, split at its word boundaries so
  /// StreamKey can keep a prefix: `x` is the splitmix64 counter, `h` the
  /// xor of the finalised words absorbed so far.  Each word passes
  /// through the full finaliser before the next is absorbed, so streams
  /// that differ in a single bit of (base, a, b) decorrelate completely;
  /// distinct odd multipliers keep (a, b) and (b, a) from colliding.
  struct StreamState {
    std::uint64_t x = 0;
    std::uint64_t h = 0;
  };
  static StreamState absorb_base(std::uint64_t base) {
    StreamState st{base, 0};
    st.h = splitmix64(st.x);
    return st;
  }
  static StreamState absorb_a(StreamState st, std::uint64_t a) {
    st.x ^= a * 0xA24BAED4963EE407ull;
    st.h ^= splitmix64(st.x);
    return st;
  }
  static StreamState absorb_b(StreamState st, std::uint64_t b) {
    st.x ^= b * 0x9FB21C651E98DF25ull;
    st.h ^= splitmix64(st.x);
    return st;
  }

  /// Rng(seed).uniform01() from one finaliser instead of four: the first
  /// xoshiro256** output reads only the second state word, s1 =
  /// mix(seed + 2 * gamma), and the all-zero guard only ever rewrites s0.
  static double first_uniform01(std::uint64_t seed) {
    const std::uint64_t s1 = mix64(seed + 2 * kGamma);
    return to_unit(std::rotl(s1 * 5, 7) * 9);
  }

  static constexpr std::uint64_t kGamma = 0x9E3779B97F4A7C15ull;
  /// The splitmix64 finaliser.
  static std::uint64_t mix64(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// One splitmix64 step: advances the counter, finalises it.
  static std::uint64_t splitmix64(std::uint64_t& x) {
    x += kGamma;
    return mix64(x);
  }
  /// 53 high bits -> double in [0, 1).
  static double to_unit(std::uint64_t r) {
    return static_cast<double>(r >> 11) * 0x1.0p-53;
  }

  std::array<std::uint64_t, 4> s_{};
};

/// Keyed draws on the substreams (slot, channel) of one base, for callers
/// that usually need only the first uniform of a stream (the fault
/// path's one-draw-per-frame decisions).  uniform01() returns
/// Rng::stream(base, slot, channel).uniform01() bit for bit, but pays two
/// finalisers per call instead of seven: the base is absorbed once at
/// construction and the slot absorption is kept for the last slot asked
/// about, so only the channel word and the generator's s1 remain.  The
/// memo is keyed on equality with that slot, never on slot order, so
/// callers may probe ahead and come back.  stream() builds the full
/// generator, which replays the same first draw, for the rare caller
/// that continues past it.
///
/// The memo makes every call a write: one StreamKey serves one thread.
class StreamKey {
 public:
  explicit StreamKey(std::uint64_t base)
      : base_(Rng::absorb_base(base)), slot_st_(Rng::absorb_a(base_, 0)) {}

  /// First uniform of Rng::stream(base, slot, channel), bit for bit.
  double uniform01(std::uint64_t slot, std::uint64_t channel) {
    return Rng::first_uniform01(seed(slot, channel));
  }
  /// Rng::stream(base, slot, channel).
  Rng stream(std::uint64_t slot, std::uint64_t channel) {
    return Rng(seed(slot, channel));
  }

 private:
  std::uint64_t seed(std::uint64_t slot, std::uint64_t channel) {
    if (slot != slot_) {
      slot_st_ = Rng::absorb_a(base_, slot);
      slot_ = slot;
    }
    return Rng::absorb_b(slot_st_, channel).h;
  }

  Rng::StreamState base_;
  std::uint64_t slot_ = 0;
  Rng::StreamState slot_st_;  // base_ after absorbing slot_
};

}  // namespace ccredf::sim
