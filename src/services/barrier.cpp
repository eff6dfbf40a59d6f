#include "services/barrier.hpp"

#include "common/error.hpp"

namespace ccredf::services {

BarrierService::BarrierService(net::Network& net)
    : net_(net), arrival_(net.nodes(), sim::TimePoint::infinity()) {
  net_.add_slot_hook(this);
}

void BarrierService::begin(NodeSet participants) {
  CCREDF_EXPECT(!active_, "BarrierService: barrier already in progress");
  CCREDF_EXPECT(!participants.empty(), "BarrierService: empty barrier");
  participants_ = participants;
  pending_ = participants;
  for (auto& a : arrival_) a = sim::TimePoint::infinity();
  last_arrival_ = sim::TimePoint::origin();
  active_ = true;
  complete_ = false;
  completion_.reset();
}

void BarrierService::arrive(NodeId node) {
  CCREDF_EXPECT(active_, "BarrierService: no barrier in progress");
  CCREDF_EXPECT(participants_.contains(node),
                "BarrierService: node is not a participant");
  if (arrival_[node] == sim::TimePoint::infinity()) {
    arrival_[node] = net_.sim().now();
    last_arrival_ = std::max(last_arrival_, arrival_[node]);
  }
}

SlotIndex BarrierService::next_deadline_slot(SlotIndex from,
                                             SlotIndex limit) {
  for (const NodeId n : pending_) {
    if (arrival_[n] != sim::TimePoint::infinity()) return from;
  }
  return limit;
}

void BarrierService::on_slot_end(const net::SlotRecord& rec) {
  if (!active_) return;
  // The master collects the flag of every participant whose arrival
  // preceded its sampling instant in this slot.
  NodeSet still_pending;
  const core::ControlTiming& ct = net_.control_timing();
  for (const NodeId n : pending_) {
    if (arrival_[n] > rec.start + ct.sample_offset_of(rec.master, n)) {
      still_pending.insert(n);
    }
  }
  pending_ = still_pending;
  if (pending_.empty()) {
    active_ = false;
    complete_ = true;
    completion_ = rec.end;  // distribution packet ends with the slot
    ++rounds_;
  }
}

std::optional<sim::Duration> BarrierService::latency() const {
  if (!complete_ || !completion_) return std::nullopt;
  return *completion_ - last_arrival_;
}

}  // namespace ccredf::services
