// Credit-based flow control (paper §1: intrinsic flow-control service).
//
// Each (source, destination) pair holds a credit window measured in
// messages.  A send consumes a credit; when none is available the message
// waits in the service's pending queue.  Credits return when the receiver
// has consumed the delivery, modelled as one slot extent after delivery
// (the credit rides the control channel back).
#pragma once

#include <cstdint>
#include <deque>
#include <map>

#include "common/types.hpp"
#include "core/priority.hpp"
#include "net/network.hpp"
#include "sim/time.hpp"

namespace ccredf::services {

class CreditFlowControl : private net::SlotHook {
 public:
  /// `window` credits per (src, dst) pair.  Attaches to `net` as a slot
  /// hook; `net` must outlive the service.
  CreditFlowControl(net::Network& net, int window);
  ~CreditFlowControl() override { net_.remove_slot_hook(this); }

  /// Sends when a credit is available, otherwise queues the message; the
  /// queue drains automatically as credits return.  Returns true when the
  /// message was sent immediately.
  bool send(NodeId src, NodeId dst, std::int64_t size_slots,
            sim::Duration relative_deadline);

  [[nodiscard]] int credits(NodeId src, NodeId dst) const;
  [[nodiscard]] std::size_t blocked(NodeId src, NodeId dst) const;
  [[nodiscard]] std::int64_t sends_blocked_total() const { return blocked_; }

 private:
  struct PendingSend {
    std::int64_t size_slots;
    sim::Duration relative_deadline;
  };
  using Pair = std::pair<NodeId, NodeId>;

  // net::SlotHook: deliveries exist only in granted slots, which
  // fast-forward never skips, so no idle slot needs to be simulated.
  void on_slot_end(const net::SlotRecord& rec) override;
  SlotIndex next_deadline_slot(SlotIndex, SlotIndex limit) override {
    return limit;
  }
  void dispatch(NodeId src, NodeId dst, const PendingSend& p);

  net::Network& net_;
  int window_;
  std::map<Pair, int> credits_;
  std::map<Pair, std::deque<PendingSend>> pending_;
  /// In-flight message id -> pair, to return the credit on delivery.
  std::map<MessageId, Pair> in_flight_;
  std::int64_t blocked_ = 0;
};

}  // namespace ccredf::services
