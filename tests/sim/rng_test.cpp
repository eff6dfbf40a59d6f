#include "sim/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>

#include "common/error.hpp"

namespace ccredf::sim {
namespace {

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, ZeroSeedIsValid) {
  Rng r(0);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 50; ++i) seen.insert(r.next_u64());
  EXPECT_GT(seen.size(), 45u);  // not stuck
}

TEST(Rng, Uniform01InRange) {
  Rng r(7);
  for (int i = 0; i < 10'000; ++i) {
    const double v = r.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, Uniform01MeanNearHalf) {
  Rng r(11);
  double sum = 0.0;
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i) sum += r.uniform01();
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Rng, UniformU64RespectsBound) {
  Rng r(3);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(r.uniform_u64(7), 7u);
  }
}

TEST(Rng, UniformU64CoversAllResidues) {
  Rng r(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1'000; ++i) seen.insert(r.uniform_u64(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformU64RejectsZeroBound) {
  Rng r(1);
  EXPECT_THROW((void)r.uniform_u64(0), ConfigError);
}

TEST(Rng, UniformIntInclusiveRange) {
  Rng r(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2'000; ++i) {
    const auto v = r.uniform_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformIntRejectsEmptyRange) {
  Rng r(1);
  EXPECT_THROW((void)r.uniform_int(3, 2), ConfigError);
}

TEST(Rng, ExponentialMeanConverges) {
  Rng r(13);
  double sum = 0.0;
  constexpr int kN = 200'000;
  for (int i = 0; i < kN; ++i) sum += r.exponential(5.0);
  EXPECT_NEAR(sum / kN, 5.0, 0.1);
}

TEST(Rng, ExponentialIsPositive) {
  Rng r(17);
  for (int i = 0; i < 10'000; ++i) EXPECT_GE(r.exponential(1.0), 0.0);
}

TEST(Rng, ExponentialRejectsNonPositiveMean) {
  Rng r(1);
  EXPECT_THROW((void)r.exponential(0.0), ConfigError);
  EXPECT_THROW((void)r.exponential(-1.0), ConfigError);
}

TEST(Rng, ExponentialDuration) {
  Rng r(19);
  double sum_ns = 0.0;
  constexpr int kN = 50'000;
  for (int i = 0; i < kN; ++i) {
    sum_ns += r.exponential(Duration::nanoseconds(100)).ns();
  }
  EXPECT_NEAR(sum_ns / kN, 100.0, 3.0);
}

TEST(Rng, NormalMoments) {
  Rng r(23);
  double sum = 0.0, sq = 0.0;
  constexpr int kN = 200'000;
  for (int i = 0; i < kN; ++i) {
    const double v = r.normal(10.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / kN;
  const double var = sq / kN - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(Rng, BernoulliFrequency) {
  Rng r(29);
  int hits = 0;
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i) {
    if (r.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.01);
}

TEST(Rng, PermutationIsPermutation) {
  Rng r(31);
  auto p = r.permutation(20);
  std::sort(p.begin(), p.end());
  for (std::size_t i = 0; i < p.size(); ++i) EXPECT_EQ(p[i], i);
}

TEST(Rng, PermutationShuffles) {
  Rng r(37);
  const auto p = r.permutation(50);
  std::size_t fixed = 0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (p[i] == i) ++fixed;
  }
  EXPECT_LT(fixed, 10u);
}

TEST(Rng, ForkIsIndependent) {
  Rng parent(41);
  Rng child = parent.fork();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.next_u64() == child.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, ForkIsDeterministic) {
  Rng a(43), b(43);
  Rng ca = a.fork();
  Rng cb = b.fork();
  for (int i = 0; i < 20; ++i) EXPECT_EQ(ca.next_u64(), cb.next_u64());
}

// stream_seed written out word by word, independent of the StreamState
// split it is built from.
std::uint64_t reference_stream_seed(std::uint64_t base, std::uint64_t a,
                                    std::uint64_t b) {
  const auto splitmix = [](std::uint64_t& x) {
    x += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  };
  std::uint64_t x = base;
  std::uint64_t h = splitmix(x);
  x ^= a * 0xA24BAED4963EE407ull;
  h ^= splitmix(x);
  x ^= b * 0x9FB21C651E98DF25ull;
  h ^= splitmix(x);
  return h;
}

std::uint64_t bits_of(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(Rng, StreamSeedMatchesTheWordByWordDerivation) {
  Rng r(99);
  for (int i = 0; i < 10'000; ++i) {
    const std::uint64_t base = r.next_u64();
    const std::uint64_t a = r.next_u64();
    const std::uint64_t b = r.next_u64();
    ASSERT_EQ(Rng::stream_seed(base, a, b), reference_stream_seed(base, a, b));
  }
  EXPECT_EQ(Rng::stream_seed(0, 0, 0), reference_stream_seed(0, 0, 0));
}

TEST(StreamKey, FirstUniformIsBitIdenticalToTheFullStream) {
  // 10^6 random (base, slot, channel) triples, each through a fresh key
  // and through a key that saw the previous slot.
  Rng r(2026);
  StreamKey carried(0);
  for (int i = 0; i < 1'000'000; ++i) {
    const std::uint64_t base = r.next_u64();
    const std::uint64_t a = r.next_u64();
    const std::uint64_t b = r.next_u64();
    StreamKey key(base);
    ASSERT_EQ(bits_of(key.uniform01(a, b)),
              bits_of(Rng::stream(base, a, b).uniform01()))
        << base << ' ' << a << ' ' << b;
    ASSERT_EQ(bits_of(carried.uniform01(a % 8, b)),
              bits_of(Rng::stream(0, a % 8, b).uniform01()));
  }
}

TEST(StreamKey, EdgeWordsAndAdjacentSlots) {
  const std::uint64_t edges[] = {0,
                                 1,
                                 2,
                                 ~std::uint64_t{0},
                                 ~std::uint64_t{0} - 1,
                                 std::uint64_t{1} << 63,
                                 0x9E3779B97F4A7C15ull};
  for (const std::uint64_t base : edges) {
    StreamKey key(base);
    for (const std::uint64_t a : edges) {
      for (const std::uint64_t b : edges) {
        // The slot itself, then its neighbours: the memo must follow.
        for (const std::uint64_t s : {a, a + 1, a - 1, a}) {
          ASSERT_EQ(bits_of(key.uniform01(s, b)),
                    bits_of(Rng::stream(base, s, b).uniform01()))
              << base << ' ' << s << ' ' << b;
        }
      }
    }
  }
}

TEST(StreamKey, MemoFollowsOutOfOrderSlots) {
  // The fast-forward probe draws ahead (s + 5), the live filter then
  // draws for the live slot (s), and the probe comes back (s + 5): every
  // draw must equal a fresh stream's, on both channels.
  constexpr std::uint64_t kBase = 0xFA17ull;
  constexpr std::uint64_t kChannels[] = {1, 0x203};
  StreamKey key(kBase);
  for (std::uint64_t s = 0; s < 1'000; ++s) {
    for (const std::uint64_t slot : {s + 5, s, s + 5, s}) {
      for (const std::uint64_t chan : kChannels) {
        ASSERT_EQ(bits_of(key.uniform01(slot, chan)),
                  bits_of(Rng::stream(kBase, slot, chan).uniform01()))
            << slot << ' ' << chan;
      }
    }
  }
}

TEST(StreamKey, StreamIsTheFullGenerator) {
  constexpr std::uint64_t kBase = 42;
  StreamKey key(kBase);
  for (std::uint64_t s = 0; s < 100; ++s) {
    for (std::uint64_t chan = 0; chan < 4; ++chan) {
      const double first = key.uniform01(s, chan);
      Rng got = key.stream(s, chan);
      Rng want = Rng::stream(kBase, s, chan);
      ASSERT_EQ(bits_of(got.uniform01()), bits_of(first));
      want.next_u64();
      for (int i = 0; i < 8; ++i) ASSERT_EQ(got.next_u64(), want.next_u64());
    }
  }
}

}  // namespace
}  // namespace ccredf::sim
