#include "core/control_timing.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/frames.hpp"
#include "core/schedulability.hpp"
#include "net/network.hpp"

namespace ccredf::core {
namespace {

using sim::Duration;

phy::RingPhy ring8() { return phy::RingPhy(phy::optobus(), 8, 10.0); }

ControlTiming timing8(const phy::RingPhy& r) {
  const FrameCodec codec(8, PriorityLayout{}, false);
  return ControlTiming(&r, codec.collection_bits(),
                       codec.distribution_bits());
}

TEST(ControlTiming, MasterSampledAtSlotStart) {
  const auto r = ring8();
  const auto ct = timing8(r);
  EXPECT_EQ(ct.sample_offset(3, 0), Duration::zero());
}

TEST(ControlTiming, SampleOffsetsAccumulatePropAndPassthrough) {
  const auto r = ring8();
  const auto ct = timing8(r);
  // h hops: 50 ns prop each + 2 passthrough bits (5 ns) each.
  EXPECT_EQ(ct.sample_offset(0, 1), Duration::nanoseconds(55));
  EXPECT_EQ(ct.sample_offset(0, 3), Duration::nanoseconds(165));
  EXPECT_EQ(ct.sample_offset(0, 7), Duration::nanoseconds(385));
}

TEST(ControlTiming, SampleOffsetsMonotoneInHops) {
  const auto r = ring8();
  const auto ct = timing8(r);
  for (NodeId h = 1; h < 8; ++h) {
    EXPECT_GT(ct.sample_offset(2, h), ct.sample_offset(2, h - 1));
  }
}

TEST(ControlTiming, SampleOffsetOfResolvesHops) {
  const auto r = ring8();
  const auto ct = timing8(r);
  EXPECT_EQ(ct.sample_offset_of(6, 1), ct.sample_offset(6, 3));  // wraps
  EXPECT_EQ(ct.sample_offset_of(2, 2), Duration::zero());
}

TEST(ControlTiming, CollectionCompleteIncludesPacketBits) {
  const auto r = ring8();
  const FrameCodec codec(8, PriorityLayout{}, false);
  const ControlTiming ct(&r, codec.collection_bits(),
                         codec.distribution_bits());
  // ring 400 ns + 8*2 bits passthrough (40 ns) + 169 bits (422.5 ns).
  const auto expect = Duration::picoseconds(
      400'000 + 40'000 + 169 * 2'500);
  EXPECT_EQ(ct.collection_complete_offset(), expect);
  // Strictly more than the paper's Eq. 2 terms alone.
  EXPECT_GT(ct.collection_complete_offset(), Duration::nanoseconds(440));
}

TEST(ControlTiming, DistributionTime) {
  const auto r = ring8();
  const FrameCodec codec(8, PriorityLayout{}, false);
  const ControlTiming ct(&r, codec.collection_bits(),
                         codec.distribution_bits());
  EXPECT_EQ(ct.distribution_time(),
            r.link().control_time(codec.distribution_bits()));
}

TEST(ControlTiming, FitsSlotBoundary) {
  const auto r = ring8();
  const auto ct = timing8(r);
  const auto need =
      ct.collection_complete_offset() + ct.distribution_time();
  EXPECT_TRUE(ct.fits_slot(need));
  EXPECT_FALSE(ct.fits_slot(need - Duration::picoseconds(1)));
}

TEST(ControlTiming, NetworkAutoPayloadSatisfiesExactBudget) {
  // A slot of exactly min_payload_bytes must pass the exact (not just
  // Eq. 2) control-phase check, and one byte less must not, for small and
  // large rings alike.  The engine's auto payload is that minimum raised
  // to the payload floor.
  for (const NodeId nodes : {NodeId{2}, NodeId{4}, NodeId{16}, NodeId{64}}) {
    net::NetworkConfig cfg;
    cfg.nodes = nodes;
    net::Network n(cfg);
    const ControlTiming& ct = n.control_timing();
    const std::int64_t exact = ct.min_payload_bytes();
    EXPECT_TRUE(ct.fits_slot(SlotTiming(n.phy(), exact).slot()))
        << "nodes=" << nodes;
    if (exact - 1 >= SlotTiming::min_payload_bytes(n.phy())) {
      EXPECT_FALSE(ct.fits_slot(SlotTiming(n.phy(), exact - 1).slot()))
          << "nodes=" << nodes;
    }
    EXPECT_EQ(n.timing().payload_bytes(),
              std::max(exact, net::kDefaultPayloadFloor))
        << "nodes=" << nodes;
  }
}

}  // namespace
}  // namespace ccredf::core
