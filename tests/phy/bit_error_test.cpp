#include "phy/bit_error.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "sim/rng.hpp"

namespace ccredf::phy {
namespace {

constexpr std::uint64_t kSeed = 0x5EEDu;

std::vector<std::uint8_t> zeroes(std::size_t nbits) {
  return std::vector<std::uint8_t>((nbits + 7) / 8, 0);
}

TEST(BitErrorModel, ValidatesConstruction) {
  EXPECT_THROW(BitErrorModel(1, 0.0, kSeed), ConfigError);
  EXPECT_THROW(BitErrorModel(65, 0.0, kSeed), ConfigError);
  EXPECT_THROW(BitErrorModel(4, -0.1, kSeed), ConfigError);
  EXPECT_THROW(BitErrorModel(4, 1.0, kSeed), ConfigError);
  EXPECT_THROW(BitErrorModel(std::vector<double>{0.1}, kSeed), ConfigError);
  EXPECT_NO_THROW(BitErrorModel(4, 0.999, kSeed));
}

TEST(BitErrorModel, EnabledOnlyWithNonZeroRate) {
  EXPECT_FALSE(BitErrorModel(4, 0.0, kSeed).enabled());
  EXPECT_TRUE(BitErrorModel(4, 1e-6, kSeed).enabled());
  EXPECT_TRUE(
      BitErrorModel(std::vector<double>{0, 0, 1e-4, 0}, kSeed).enabled());
}

TEST(BitErrorModel, PathErrorProbabilityCompounds) {
  const BitErrorModel uniform(4, 0.1, kSeed);
  EXPECT_DOUBLE_EQ(uniform.path_exposure(0, 1).p, 0.1);
  // 1 - (1 - 0.1)^2 over two links.
  EXPECT_NEAR(uniform.path_exposure(0, 2).p, 0.19, 1e-12);
  // Full ring: 1 - 0.9^4.
  EXPECT_NEAR(uniform.path_exposure(2, 4).p, 1.0 - 0.6561, 1e-12);

  // Per-link rates wrap around the ring from `first`.
  const BitErrorModel mixed(std::vector<double>{0.0, 0.5, 0.0, 0.0}, kSeed);
  EXPECT_DOUBLE_EQ(mixed.path_exposure(1, 1).p, 0.5);
  EXPECT_DOUBLE_EQ(mixed.path_exposure(2, 2).p, 0.0);
  EXPECT_DOUBLE_EQ(mixed.path_exposure(3, 3).p, 0.5);
}

TEST(BitErrorModel, PathTableIsBitIdenticalToTheLinkLoop) {
  // The tabled probabilities (and their logarithms) must equal the
  // per-call loop they replace to the last bit: every fault draw
  // compares a uniform against them.
  sim::Rng rng(77);
  for (const NodeId n : {2u, 3u, 7u, 16u, 33u, 64u}) {
    for (int trial = 0; trial < 4; ++trial) {
      std::vector<double> ber(n);
      for (double& b : ber) {
        // Log-uniform over [1e-12, 1e-1), with some exact zeros.
        b = rng.bernoulli(0.2)
                ? 0.0
                : std::pow(10.0, rng.uniform_real(-12.0, -1.0));
      }
      const BitErrorModel m(ber, kSeed);
      for (LinkId first = 0; first < n; ++first) {
        for (NodeId hops = 0; hops <= n; ++hops) {
          double survive = 1.0;
          for (NodeId i = 0; i < hops; ++i) {
            survive *= 1.0 - ber[(first + i) % n];
          }
          const double want = 1.0 - survive;
          const BitErrorModel::Exposure& e = m.path_exposure(first, hops);
          ASSERT_EQ(std::bit_cast<std::uint64_t>(e.p),
                    std::bit_cast<std::uint64_t>(want))
              << "n=" << n << " first=" << first << " hops=" << hops;
          ASSERT_EQ(std::bit_cast<std::uint64_t>(e.log1mp),
                    std::bit_cast<std::uint64_t>(std::log1p(-want)))
              << "n=" << n << " first=" << first << " hops=" << hops;
        }
      }
    }
  }
}

TEST(BitErrorModel, PathLongerThanRingIsRejected) {
  const BitErrorModel m(4, 0.1, kSeed);
  EXPECT_NO_THROW((void)m.path_exposure(3, 4));
  EXPECT_THROW((void)m.path_exposure(0, 5), ConfigError);
}

TEST(BitErrorModel, ZeroProbabilityNeverFlips) {
  const BitErrorModel m(4, 0.5, kSeed);
  auto buf = zeroes(256);
  for (SlotIndex s = 0; s < 50; ++s) {
    EXPECT_EQ(m.corrupt(s, 0, 0.0, buf.data(), 256), 0);
  }
  EXPECT_EQ(buf, zeroes(256));
}

TEST(BitErrorModel, SameCoordinatesFlipTheSameBits) {
  const BitErrorModel m(4, 0.5, kSeed);
  auto a = zeroes(96);
  auto b = zeroes(96);
  const int fa = m.corrupt(17, 3, 0.25, a.data(), 96);
  const int fb = m.corrupt(17, 3, 0.25, b.data(), 96);
  EXPECT_EQ(fa, fb);
  EXPECT_EQ(a, b);
  EXPECT_GT(fa, 0);  // p = 0.25 over 96 bits: flipless is ~1e-12
}

TEST(BitErrorModel, DifferentCoordinatesAreIndependent) {
  const BitErrorModel m(4, 0.5, kSeed);
  auto by_slot = zeroes(96);
  auto by_chan = zeroes(96);
  auto base = zeroes(96);
  m.corrupt(17, 3, 0.25, base.data(), 96);
  m.corrupt(18, 3, 0.25, by_slot.data(), 96);
  m.corrupt(17, 4, 0.25, by_chan.data(), 96);
  EXPECT_NE(base, by_slot);
  EXPECT_NE(base, by_chan);
}

TEST(BitErrorModel, FlipCountTracksProbability) {
  // Mean flips per frame = p * nbits; over many keyed frames the
  // empirical mean must land close (law of large numbers, fixed seed).
  const BitErrorModel m(4, 0.5, kSeed);
  const double p = 0.1;
  const std::size_t nbits = 200;
  std::int64_t total = 0;
  const int frames = 2000;
  for (SlotIndex s = 0; s < frames; ++s) {
    auto buf = zeroes(nbits);
    total += m.corrupt(s, 9, p, buf.data(), nbits);
  }
  const double mean = static_cast<double>(total) / frames;
  EXPECT_NEAR(mean, p * static_cast<double>(nbits), 1.0);
}

TEST(BitErrorModel, FlipsStayInsideTheBitRange) {
  // nbits not byte-aligned: bits past nbits (padding in the last byte)
  // must never be touched.
  const BitErrorModel m(4, 0.5, kSeed);
  const std::size_t nbits = 13;  // 2 bytes, 3 padding bits
  for (SlotIndex s = 0; s < 500; ++s) {
    auto buf = zeroes(nbits);
    m.corrupt(s, 1, 0.9, buf.data(), nbits);
    EXPECT_EQ(buf[1] & 0x07u, 0) << "padding bit flipped at slot " << s;
  }
}

TEST(BitErrorModel, CertainCorruptionHitsEveryFrame) {
  const BitErrorModel m(4, 0.5, kSeed);
  for (SlotIndex s = 0; s < 100; ++s) {
    auto buf = zeroes(32);
    EXPECT_GT(m.corrupt(s, 2, 0.999999, buf.data(), 32), 0);
  }
}

TEST(BitErrorModel, CountFlipsMatchesCorruptExactly) {
  // The bufferless payload sampler must agree flip-for-flip with the
  // buffer-materialising path at every coordinate -- the reliability
  // model's verdicts are then provably the same ones a real corrupted
  // buffer would have produced.
  const BitErrorModel m(4, 0.5, kSeed);
  const std::size_t nbits = 340 * 8;  // a typical slot payload
  for (SlotIndex s = 0; s < 200; ++s) {
    auto buf = zeroes(nbits);
    const int flipped = m.corrupt(s, 7, 1e-3, buf.data(), nbits);
    EXPECT_EQ(m.count_flips(s, 7, 1e-3, nbits), flipped) << "slot " << s;
  }
}

TEST(BitErrorModel, CountFlipsIsDeterministicAndKeyed) {
  const BitErrorModel m(4, 0.5, kSeed);
  EXPECT_EQ(m.count_flips(17, 3, 0.25, 96), m.count_flips(17, 3, 0.25, 96));
  EXPECT_EQ(m.count_flips(5, 1, 0.0, 4096), 0);
  // Over many frames the empirical mean tracks p * nbits, as corrupt().
  std::int64_t total = 0;
  for (SlotIndex s = 0; s < 2000; ++s) {
    total += m.count_flips(s, 9, 0.1, 200);
  }
  EXPECT_NEAR(static_cast<double>(total) / 2000.0, 20.0, 1.0);
}

// The exact first-draw rule: the frame is clean when the first gap,
// floor(log1p(-u) / log1mp), covers all `nbits` bits.
bool exact_clean(double u, double log1mp, std::size_t nbits) {
  return !(std::floor(std::log1p(-u) / log1mp) <
           static_cast<double>(nbits));
}

// The sampler's first-draw decision: screened clean at or above the
// threshold, the exact rule below it.
bool sampler_clean(double u, double thr, double log1mp, std::size_t nbits) {
  return u >= thr || exact_clean(u, log1mp, nbits);
}

TEST(BitErrorModel, CleanFrameScreenNeverOverrulesTheExactRule) {
  // A draw at or above the screen threshold is returned clean without
  // the logarithm; the exact rule must call every such draw clean too,
  // so the sampler's decision equals the exact rule's for every u.
  // 8 x 6 x 21'000 > 10^6 random draws, half of them near the band.
  const double ps[] = {1e-15, 1e-9, 1e-6, 1.6e-5, 1e-3, 0.1, 0.5, 0.9};
  const std::size_t sizes[] = {1, 13, 41, 57, 2720, 100'000};
  sim::Rng rng(2024);
  std::int64_t screened = 0;
  for (const double p : ps) {
    const double log1mp = BitErrorModel::Exposure(p).log1mp;
    for (const std::size_t nbits : sizes) {
      const double thr = BitErrorModel::clean_frame_threshold(log1mp, nbits);
      const double bound = static_cast<double>(nbits) * -log1mp;
      // Exactly at the threshold, one ulp either side of it, and at both
      // edges of the band.
      for (const double u :
           {thr, std::nextafter(thr, 0.0), std::nextafter(thr, 1.0), bound,
            std::nextafter(bound, 0.0), std::nextafter(bound, 1.0)}) {
        if (u >= 1.0) continue;
        EXPECT_EQ(sampler_clean(u, thr, log1mp, nbits),
                  exact_clean(u, log1mp, nbits))
            << "p=" << p << " nbits=" << nbits << " u=" << u;
      }
      // Random draws: uniform over [0, 1) and clustered around the band.
      for (int i = 0; i < 21'000; ++i) {
        double u = rng.uniform01();
        if (i % 2 == 1) u = thr * (1.0 + rng.uniform_real(-1e-6, 1e-6));
        if (i % 4 == 3) u = thr * (1.0 + rng.uniform_real(-1e-8, 1e-8));
        if (u >= 1.0) continue;
        if (u >= thr) ++screened;
        ASSERT_EQ(sampler_clean(u, thr, log1mp, nbits),
                  exact_clean(u, log1mp, nbits))
            << "p=" << p << " nbits=" << nbits << " u=" << u;
      }
    }
  }
  EXPECT_GT(screened, 0);
}

// The geometric-skip sampler written without the screen, without
// tabled logarithms and on a freshly built stream per frame.
int reference(std::uint64_t seed, SlotIndex slot, std::uint64_t channel,
              double p, std::uint8_t* bytes, std::size_t nbits) {
  sim::Rng rng =
      sim::Rng::stream(seed, static_cast<std::uint64_t>(slot), channel);
  const double log1mp = std::log1p(-p);
  int flips = 0;
  std::size_t pos = 0;
  while (true) {
    const double u = rng.uniform01();
    const double skip = std::floor(std::log1p(-u) / log1mp);
    if (!(skip < static_cast<double>(nbits - pos))) break;
    pos += static_cast<std::size_t>(skip);
    bytes[pos / 8] ^= static_cast<std::uint8_t>(0x80u >> (pos % 8));
    ++flips;
    ++pos;
    if (pos >= nbits) break;
  }
  return flips;
}

TEST(BitErrorModel, SamplerMatchesTheUnscreenedReference) {
  // Every flip position must agree with the reference.
  const BitErrorModel m(std::vector<double>{1e-6, 1e-4, 1e-3, 0.02}, kSeed);
  for (LinkId first = 0; first < 4; ++first) {
    for (NodeId hops = 1; hops <= 4; ++hops) {
      const BitErrorModel::Exposure& e = m.path_exposure(first, hops);
      for (const std::size_t nbits : {std::size_t{41}, std::size_t{2752}}) {
        for (SlotIndex s = 0; s < 400; ++s) {
          auto want = zeroes(nbits);
          auto got = zeroes(nbits);
          const int wf = reference(kSeed, s, 5, e.p, want.data(), nbits);
          ASSERT_EQ(m.corrupt(s, 5, e, got.data(), nbits), wf);
          ASSERT_EQ(got, want);
          ASSERT_EQ(m.count_flips(s, 5, e, nbits), wf);
        }
      }
    }
  }
}

TEST(BitErrorModel, SamplerMatchesTheReferenceAcrossOutOfOrderSlots) {
  // The model memoises the stream key of the last slot it drew for.  The
  // fast-forward probe draws slots ahead of the live slot and the live
  // filters then come back, on several channels: the order the model
  // sees (s + 5, s, s + 5 on two channels) must not change any flip.
  const BitErrorModel m(std::vector<double>{1e-4, 1e-3, 0.02, 0.05}, kSeed);
  const BitErrorModel::Exposure& e = m.path_exposure(1, 3);
  constexpr std::size_t kBits = 97;
  constexpr std::uint64_t kChannels[] = {1, 0x207};
  int hits = 0;
  for (SlotIndex s = 0; s < 2'000; ++s) {
    for (const SlotIndex slot : {s + 5, s, s + 5}) {
      for (const std::uint64_t chan : kChannels) {
        auto want = zeroes(kBits);
        auto got = zeroes(kBits);
        const int wf = reference(kSeed, slot, chan, e.p, want.data(), kBits);
        ASSERT_EQ(m.count_flips(slot, chan, e, kBits), wf);
        ASSERT_EQ(m.corrupt(slot, chan, e, got.data(), kBits), wf);
        ASSERT_EQ(got, want) << "slot " << slot << " channel " << chan;
        if (wf > 0) ++hits;
      }
    }
  }
  EXPECT_GT(hits, 100);  // the hit path (full stream) is exercised
}

TEST(BitErrorModel, SeedChangesTheStream) {
  const BitErrorModel a(4, 0.5, kSeed);
  const BitErrorModel b(4, 0.5, kSeed + 1);
  auto ba = zeroes(96);
  auto bb = zeroes(96);
  a.corrupt(5, 0, 0.25, ba.data(), 96);
  b.corrupt(5, 0, 0.25, bb.data(), 96);
  EXPECT_NE(ba, bb);
}

}  // namespace
}  // namespace ccredf::phy
