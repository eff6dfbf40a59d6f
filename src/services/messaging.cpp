#include "services/messaging.hpp"

#include "common/error.hpp"

namespace ccredf::services {

Messenger::Messenger(net::Network& net)
    : net_(net), handlers_(net.nodes()) {
  net_.add_slot_hook(this);
}

void Messenger::set_handler(NodeId node, Handler h) {
  CCREDF_EXPECT(node < handlers_.size(), "Messenger: bad node");
  handlers_[node] = std::move(h);
}

std::int64_t Messenger::slots_for(std::int64_t bytes) const {
  const std::int64_t per_slot = net_.timing().payload_bytes();
  return std::max<std::int64_t>(1, (bytes + per_slot - 1) / per_slot);
}

MessageId Messenger::multicast_bytes(NodeId src, NodeSet dests,
                                     std::span<const std::uint8_t> payload,
                                     core::TrafficClass cls,
                                     sim::Duration relative_deadline) {
  const std::int64_t slots =
      slots_for(static_cast<std::int64_t>(payload.size()));
  const MessageId id = net_.send(src, dests, cls, slots, relative_deadline);
  payloads_.emplace(id,
                    std::vector<std::uint8_t>(payload.begin(), payload.end()));
  return id;
}

MessageId Messenger::send_bytes(NodeId src, NodeId dst,
                                std::span<const std::uint8_t> payload,
                                core::TrafficClass cls,
                                sim::Duration relative_deadline) {
  return multicast_bytes(src, NodeSet::single(dst), payload, cls,
                         relative_deadline);
}

MessageId Messenger::send_short(NodeId src, NodeId dst,
                                std::span<const std::uint8_t> payload,
                                sim::Duration relative_deadline) {
  CCREDF_EXPECT(static_cast<std::int64_t>(payload.size()) <=
                    net_.timing().payload_bytes(),
                "Messenger: short message exceeds one slot");
  return send_bytes(src, dst, payload, core::TrafficClass::kBestEffort,
                    relative_deadline);
}

void Messenger::on_slot_end(const net::SlotRecord& rec) {
  for (const core::Delivery& d : rec.deliveries) {
    const auto it = payloads_.find(d.id);
    if (it == payloads_.end()) continue;
    Received r;
    r.id = d.id;
    r.source = d.source;
    r.payload = std::move(it->second);
    r.completed = d.completed;
    r.met_deadline = d.met_deadline();
    payloads_.erase(it);
    ++received_;
    for (const NodeId dst : d.dests) {
      if (handlers_[dst]) handlers_[dst](dst, r);
    }
  }
}

}  // namespace ccredf::services
