// Barrier synchronisation service (paper §1, §7: "group communication
// such as barrier synchronisation").
//
// Model: each participant sets its barrier flag, which rides the control
// channel in the collection phase of the first slot whose sampling time
// at that node is not earlier than the arrival.  When the master has seen
// every participant's flag, the completion is announced in that slot's
// distribution packet, i.e. at slot end.  No data slots are consumed --
// the service is free-riding on the control channel, exactly the appeal
// of the dedicated control fibre.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/nodeset.hpp"
#include "common/types.hpp"
#include "net/network.hpp"
#include "sim/time.hpp"

namespace ccredf::services {

class BarrierService : private net::SlotHook {
 public:
  /// Attaches to `net` as a slot hook; `net` must outlive the service.
  explicit BarrierService(net::Network& net);
  ~BarrierService() override { net_.remove_slot_hook(this); }

  /// Starts a new barrier over `participants`.  Any previous barrier must
  /// have completed.
  void begin(NodeSet participants);

  /// Participant `node` reaches the barrier at current simulated time.
  void arrive(NodeId node);

  [[nodiscard]] bool complete() const { return complete_; }
  /// Slot-end instant at which every node learned of completion.
  [[nodiscard]] std::optional<sim::TimePoint> completion_time() const {
    return completion_;
  }
  /// Completion latency measured from the *last* arrival.
  [[nodiscard]] std::optional<sim::Duration> latency() const;

  [[nodiscard]] std::int64_t barriers_completed() const { return rounds_; }

 private:
  // net::SlotHook: a raised flag is collected by an upcoming slot, which
  // must run; flags not yet raised arrive through a sim event or between
  // run calls, and both end a skip.
  void on_slot_end(const net::SlotRecord& rec) override;
  SlotIndex next_deadline_slot(SlotIndex from, SlotIndex limit) override;

  net::Network& net_;
  NodeSet participants_;
  NodeSet pending_;  // not yet observed by the master
  std::vector<sim::TimePoint> arrival_;
  sim::TimePoint last_arrival_;
  bool active_ = false;
  bool complete_ = false;
  std::optional<sim::TimePoint> completion_;
  std::int64_t rounds_ = 0;
};

}  // namespace ccredf::services
