#include "analysis/tuner.hpp"

#include <algorithm>

namespace ccredf::analysis {

std::int64_t min_legal_payload(const phy::RingPhy& phy,
                               const core::FrameCodec& codec) {
  return core::ControlTiming(&phy, codec.collection_bits(),
                             codec.distribution_bits())
      .min_payload_bytes();
}

SlotTuning tune_slot_size(const phy::RingPhy& phy,
                          const core::FrameCodec& codec,
                          sim::Duration latency_target) {
  const std::int64_t lo = min_legal_payload(phy, codec);
  const auto bit_ps = phy.link().bit_time().ps();

  // Eq. 4: latency(payload) = 2 * payload * bit_time + t_handover_max.
  // Solve for the largest payload under the target.
  const core::SlotTiming probe(phy, lo);
  const std::int64_t homax_ps = probe.max_handover().ps();
  const std::int64_t budget_ps = latency_target.ps() - homax_ps;
  const std::int64_t best = budget_ps / (2 * bit_ps);

  SlotTuning t;
  t.payload_bytes = std::max(lo, std::int64_t{1});
  t.feasible = best >= lo;
  if (t.feasible) t.payload_bytes = best;
  const core::SlotTiming timing(phy, t.payload_bytes);
  t.u_max = timing.u_max();
  t.slot = timing.slot();
  t.worst_case_latency = timing.worst_case_latency();
  return t;
}

}  // namespace ccredf::analysis
