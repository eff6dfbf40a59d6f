#include "services/flow.hpp"

#include "common/error.hpp"

namespace ccredf::services {

CreditFlowControl::CreditFlowControl(net::Network& net, int window)
    : net_(net), window_(window) {
  CCREDF_EXPECT(window >= 1, "CreditFlowControl: window must be >= 1");
  net_.add_slot_hook(this);
}

int CreditFlowControl::credits(NodeId src, NodeId dst) const {
  const auto it = credits_.find({src, dst});
  return it == credits_.end() ? window_ : it->second;
}

std::size_t CreditFlowControl::blocked(NodeId src, NodeId dst) const {
  const auto it = pending_.find({src, dst});
  return it == pending_.end() ? 0 : it->second.size();
}

void CreditFlowControl::dispatch(NodeId src, NodeId dst,
                                 const PendingSend& p) {
  const MessageId id = net_.send_best_effort(
      src, NodeSet::single(dst), p.size_slots, p.relative_deadline);
  in_flight_.emplace(id, Pair{src, dst});
}

bool CreditFlowControl::send(NodeId src, NodeId dst, std::int64_t size_slots,
                             sim::Duration relative_deadline) {
  CCREDF_EXPECT(src != dst, "CreditFlowControl: src == dst");
  auto [it, inserted] = credits_.try_emplace({src, dst}, window_);
  PendingSend p{size_slots, relative_deadline};
  if (it->second > 0) {
    --it->second;
    dispatch(src, dst, p);
    return true;
  }
  pending_[{src, dst}].push_back(p);
  ++blocked_;
  return false;
}

void CreditFlowControl::on_slot_end(const net::SlotRecord& rec) {
  // Credits return one slot extent after delivery; processing at the next
  // slot boundary models the control-channel round trip conservatively.
  for (const core::Delivery& d : rec.deliveries) {
    const auto it = in_flight_.find(d.id);
    if (it == in_flight_.end()) continue;
    const Pair pair = it->second;
    in_flight_.erase(it);
    auto& q = pending_[pair];
    if (!q.empty()) {
      // Hand the credit straight to the oldest blocked send.
      const PendingSend next = q.front();
      q.pop_front();
      dispatch(pair.first, pair.second, next);
    } else {
      ++credits_[pair];
    }
  }
}

}  // namespace ccredf::services
