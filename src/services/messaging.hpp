// Byte-payload messaging on top of the slot-granular network.
//
// The Network moves messages counted in slots; the Messenger maps user
// byte buffers onto slots (ceil(bytes / slot payload)), carries the bytes
// alongside the simulation, and hands them to per-node receive handlers on
// delivery.  Also exposes the "short message" convenience of the paper
// (§1): a single-slot, low-latency unicast.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/nodeset.hpp"
#include "common/types.hpp"
#include "core/message.hpp"
#include "net/network.hpp"

namespace ccredf::services {

class Messenger : private net::SlotHook {
 public:
  struct Received {
    MessageId id = 0;
    NodeId source = kInvalidNode;
    std::vector<std::uint8_t> payload;
    sim::TimePoint completed;
    bool met_deadline = true;
  };
  using Handler = std::function<void(NodeId self, const Received&)>;

  /// Attaches to `net` as a slot hook; `net` must outlive the messenger.
  explicit Messenger(net::Network& net);
  ~Messenger() override { net_.remove_slot_hook(this); }

  /// Receive handler for `node` (one per node).
  void set_handler(NodeId node, Handler h);

  /// Unicast `payload` as the given class; deadline relative to now.
  MessageId send_bytes(NodeId src, NodeId dst,
                       std::span<const std::uint8_t> payload,
                       core::TrafficClass cls,
                       sim::Duration relative_deadline);

  /// Multicast / broadcast variants.
  MessageId multicast_bytes(NodeId src, NodeSet dests,
                            std::span<const std::uint8_t> payload,
                            core::TrafficClass cls,
                            sim::Duration relative_deadline);

  /// Short message: a single-slot best-effort unicast with tight laxity,
  /// the low-latency service for parallel-programming primitives.
  MessageId send_short(NodeId src, NodeId dst,
                       std::span<const std::uint8_t> payload,
                       sim::Duration relative_deadline);

  /// Slots needed for `bytes` of payload on this network.
  [[nodiscard]] std::int64_t slots_for(std::int64_t bytes) const;

  [[nodiscard]] std::int64_t messages_received() const { return received_; }

 private:
  // net::SlotHook: deliveries exist only in granted slots, which
  // fast-forward never skips, so no idle slot needs to be simulated.
  void on_slot_end(const net::SlotRecord& rec) override;
  SlotIndex next_deadline_slot(SlotIndex, SlotIndex limit) override {
    return limit;
  }

  net::Network& net_;
  std::vector<Handler> handlers_;
  std::unordered_map<MessageId, std::vector<std::uint8_t>> payloads_;
  std::int64_t received_ = 0;
};

}  // namespace ccredf::services
