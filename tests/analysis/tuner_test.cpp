#include "analysis/tuner.hpp"

#include <gtest/gtest.h>

namespace ccredf::analysis {
namespace {

using sim::Duration;

phy::RingPhy ring8() { return phy::RingPhy(phy::optobus(), 8, 10.0); }
core::FrameCodec codec8() {
  return core::FrameCodec(8, core::PriorityLayout{}, false);
}

TEST(Tuner, MinLegalPayloadCoversBothConstraints) {
  const auto ring = ring8();
  const auto codec = codec8();
  const auto min = min_legal_payload(ring, codec);
  EXPECT_GE(min, core::SlotTiming::min_payload_bytes(ring));
  EXPECT_GE(min, codec.collection_bits() + codec.distribution_bits());
  EXPECT_NO_THROW(core::SlotTiming(ring, min));
}

// Both control phases share the slot, so the minimum is the SUM of the
// Eq. 2 propagation term and the control-frame bits, whichever of the
// two dominates.
TEST(Tuner, FrameBitsDominateOnShortRings) {
  const phy::RingPhy ring(phy::optobus(), 4, 5.0);
  const core::FrameCodec codec(4, core::PriorityLayout{}, false);
  const auto eq2 = core::SlotTiming::min_payload_bytes(ring);
  const auto frames = codec.collection_bits() + codec.distribution_bits();
  EXPECT_GT(frames, eq2);
  EXPECT_EQ(min_legal_payload(ring, codec), eq2 + frames);
}

TEST(Tuner, PropagationDominatesOnLongRings) {
  const phy::RingPhy ring(phy::optobus(), 8, 100.0);
  const core::FrameCodec codec(8, core::PriorityLayout{}, false);
  const auto eq2 = core::SlotTiming::min_payload_bytes(ring);
  const auto frames = codec.collection_bits() + codec.distribution_bits();
  EXPECT_GT(eq2, frames);
  EXPECT_EQ(min_legal_payload(ring, codec), eq2 + frames);
}

TEST(Tuner, MinimumFitsBothControlPhasesOnEveryRing) {
  for (const NodeId nodes : {2U, 4U, 8U, 16U, 32U, 64U}) {
    for (const double length_m : {5.0, 10.0, 100.0}) {
      SCOPED_TRACE(testing::Message()
                   << nodes << " nodes, " << length_m << " m");
      const phy::RingPhy ring(phy::optobus(), nodes, length_m);
      const core::FrameCodec codec(nodes, core::PriorityLayout{}, false);
      const core::ControlTiming control(&ring, codec.collection_bits(),
                                        codec.distribution_bits());
      const auto min = min_legal_payload(ring, codec);
      EXPECT_EQ(min, control.min_payload_bytes());
      EXPECT_TRUE(control.fits_slot(ring.link().data_time(min)));
      EXPECT_FALSE(control.fits_slot(ring.link().data_time(min - 1)));
      for (const std::int64_t target_us : {1, 2, 5, 10, 50, 200}) {
        const auto t =
            tune_slot_size(ring, codec, Duration::microseconds(target_us));
        if (t.feasible) {
          EXPECT_TRUE(control.fits_slot(t.slot));
        }
      }
    }
  }
}

TEST(Tuner, MeetsLatencyTarget) {
  const auto ring = ring8();
  const auto codec = codec8();
  const auto t = tune_slot_size(ring, codec, Duration::microseconds(10));
  ASSERT_TRUE(t.feasible);
  EXPECT_LE(t.worst_case_latency, Duration::microseconds(10));
  EXPECT_GT(t.u_max, 0.0);
}

TEST(Tuner, PicksLargestFeasiblePayload) {
  // One more byte must break the target.
  const auto ring = ring8();
  const auto codec = codec8();
  const auto target = Duration::microseconds(5);
  const auto t = tune_slot_size(ring, codec, target);
  ASSERT_TRUE(t.feasible);
  const core::SlotTiming bigger(ring, t.payload_bytes + 1);
  EXPECT_GT(bigger.worst_case_latency(), target);
}

TEST(Tuner, TighterTargetMeansSmallerSlotAndLowerUmax) {
  const auto ring = ring8();
  const auto codec = codec8();
  const auto loose = tune_slot_size(ring, codec, Duration::microseconds(50));
  const auto tight = tune_slot_size(ring, codec, Duration::microseconds(3));
  ASSERT_TRUE(loose.feasible);
  ASSERT_TRUE(tight.feasible);
  EXPECT_GT(loose.payload_bytes, tight.payload_bytes);
  EXPECT_GT(loose.u_max, tight.u_max);
}

TEST(Tuner, InfeasibleTargetReported) {
  const auto ring = ring8();
  const auto codec = codec8();
  // The minimum slot alone already costs ~2*min_payload bit times.
  const auto t = tune_slot_size(ring, codec, Duration::nanoseconds(100));
  EXPECT_FALSE(t.feasible);
  EXPECT_EQ(t.payload_bytes, min_legal_payload(ring, codec));
  EXPECT_GT(t.worst_case_latency, Duration::nanoseconds(100));
}

TEST(Tuner, ResultConsistentWithSlotTiming) {
  const auto ring = ring8();
  const auto codec = codec8();
  const auto t = tune_slot_size(ring, codec, Duration::microseconds(20));
  const core::SlotTiming check(ring, t.payload_bytes);
  EXPECT_EQ(t.slot, check.slot());
  EXPECT_DOUBLE_EQ(t.u_max, check.u_max());
  EXPECT_EQ(t.worst_case_latency, check.worst_case_latency());
}

}  // namespace
}  // namespace ccredf::analysis
