// Slot-size tuning (an engineering aid for the paper's §4 trade-off).
//
// A longer slot amortises the hand-over gap (raising U_max, Eq. 6) but
// stretches the worst-case protocol latency (Eq. 4) and the deadline
// granularity ("the smallest time unit is a slot", §5).  The tuner picks
// the largest payload whose Eq. 4 latency stays within a target, subject
// to the slot fitting both control phases (Eq. 2 plus the control
// packets' own bits).
#pragma once

#include <cstdint>

#include "core/control_timing.hpp"
#include "core/frames.hpp"
#include "core/schedulability.hpp"
#include "phy/ring_phy.hpp"
#include "sim/time.hpp"

namespace ccredf::analysis {

struct SlotTuning {
  /// False when even the smallest legal slot violates the latency target.
  bool feasible = false;
  std::int64_t payload_bytes = 0;
  double u_max = 0.0;
  sim::Duration slot = sim::Duration::zero();
  sim::Duration worst_case_latency = sim::Duration::zero();
};

/// Largest payload with Eq. 4 worst-case latency <= `latency_target`.
/// When infeasible, the returned tuning describes the smallest legal slot
/// so callers can report how far off the target is.
[[nodiscard]] SlotTuning tune_slot_size(const phy::RingPhy& phy,
                                        const core::FrameCodec& codec,
                                        sim::Duration latency_target);

/// Smallest payload legal for this ring and codec: both control phases
/// must fit the slot (core::ControlTiming::min_payload_bytes).
[[nodiscard]] std::int64_t min_legal_payload(const phy::RingPhy& phy,
                                             const core::FrameCodec& codec);

}  // namespace ccredf::analysis
