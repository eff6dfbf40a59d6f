// Timing of the control-channel phases within one slot (paper Fig. 3).
//
// The collection packet leaves the master at slot start, is delayed
// t_node (passthrough) in each node it crosses and reaches node j (h hops
// downstream) at
//     sample_time(h) = slot_start + prop(master -> j) + h * t_node,
// which is the instant node j's request is frozen.  The packet is fully
// back at the master once it has circled the ring AND its last bit has
// arrived, giving the exact form of Eq. 2's constraint; the distribution
// packet is then timed so its end coincides with slot end (paper §3).
//
// One shared implementation keeps the slot engine and every control-
// channel service (barrier, reduction) in exact agreement.
#pragma once

#include "common/types.hpp"
#include "phy/ring_phy.hpp"
#include "sim/time.hpp"

namespace ccredf::core {

class ControlTiming {
 public:
  /// `collection_bits` / `distribution_bits` from the FrameCodec.
  ControlTiming(const phy::RingPhy* phy, std::int64_t collection_bits,
                std::int64_t distribution_bits)
      : phy_(phy),
        collection_bits_(collection_bits),
        distribution_bits_(distribution_bits) {}

  /// Offset from slot start at which the collection packet samples the
  /// node `hops` downstream of the master (0 = the master itself).
  [[nodiscard]] sim::Duration sample_offset(NodeId master,
                                            NodeId hops) const {
    const auto& lp = phy_->link();
    return phy_->path_delay(master, hops) +
           lp.control_time(static_cast<std::int64_t>(hops) *
                           lp.node_passthrough_bits);
  }

  /// Offset from slot start at which node `node` is sampled under
  /// `master`.
  [[nodiscard]] sim::Duration sample_offset_of(NodeId master,
                                               NodeId node) const {
    return sample_offset(master, phy_->hops_between(master, node));
  }

  /// Offset at which the *last bit* of the complete collection packet is
  /// back at the master: full ring propagation + every passthrough +
  /// the packet's own serialisation time.  This is Eq. 2 made exact --
  /// the paper's t_minslot omits the packet-length term, which dominates
  /// on short rings.
  [[nodiscard]] sim::Duration collection_complete_offset() const {
    const auto& lp = phy_->link();
    return phy_->ring_delay() +
           lp.control_time(static_cast<std::int64_t>(phy_->nodes()) *
                           lp.node_passthrough_bits) +
           lp.control_time(collection_bits_);
  }

  /// Serialisation time of the distribution packet; its end is aligned
  /// with the slot end, so it starts at slot_end - this.
  [[nodiscard]] sim::Duration distribution_time() const {
    return phy_->link().control_time(distribution_bits_);
  }

  /// True iff both control phases fit a slot of the given duration:
  /// collection completes, the master arbitrates, and the distribution
  /// packet still ends with the slot.
  [[nodiscard]] bool fits_slot(sim::Duration t_slot) const {
    return collection_complete_offset() + distribution_time() <= t_slot;
  }

  /// Smallest payload in bytes whose slot passes fits_slot: Eq. 2's
  /// propagation and passthrough PLUS both control packets' own bits
  /// (one control bit rides per payload byte time), rounded up to a
  /// whole byte time.  The one slot-sizing rule -- the engine's auto
  /// payload and the slot tuner both use it.
  [[nodiscard]] std::int64_t min_payload_bytes() const {
    const std::int64_t byte_ps = phy_->link().bit_time().ps();
    const std::int64_t need_ps =
        (collection_complete_offset() + distribution_time()).ps();
    return (need_ps + byte_ps - 1) / byte_ps;
  }

 private:
  const phy::RingPhy* phy_;  // non-owning; outlives this object
  std::int64_t collection_bits_;
  std::int64_t distribution_bits_;
};

}  // namespace ccredf::core
