// Per-node message queues with EDF ordering and class precedence.
//
// The paper's local queueing rules (§3): a node offers its logical
// real-time connection traffic first; best-effort is requested only when
// no RT message is queued; non-real-time only when neither RT nor BE is
// queued.  Within the RT and BE queues, messages are kept in
// earliest-deadline-first order (ties broken by arrival, then id, for
// determinism); the NRT queue is FIFO.
//
// The set is indexed: a flat id -> (class, EDF key) map makes `contains`
// O(1) and lets `consume_slot` binary-search the owning queue instead of
// scanning all three.  `head` caches its answer per queue; the cache
// survives across slots while the queue is unmutated and no skipped
// (not-yet-arrived) message becomes eligible.  Message ids must be unique
// within one set, which the network guarantees by numbering messages from
// a single counter.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/flat_map.hpp"
#include "core/message.hpp"
#include "sim/time.hpp"

namespace ccredf::core {

class EdfQueueSet {
 public:
  /// Inserts a message into its class queue (EDF position for RT/BE).
  void push(const Message& msg);

  /// The message the node would request a slot for at time `sample`:
  /// the earliest-deadline *eligible* (arrival <= sample) message of the
  /// highest non-empty class.  Returns nullptr when nothing is eligible.
  /// The pointer stays valid until the next mutating call.  Inline: the
  /// collection phase calls this once per candidate per slot, and the
  /// memoised answer (unchanged queue, monotone sample) is a few loads.
  [[nodiscard]] const Message* head(sim::TimePoint sample) const {
    // Class precedence (paper §3): RT strictly before BE before NRT,
    // even if a queued BE message has a tighter deadline.
    if (const Message* m = first_eligible(rt_, rt_head_, sample)) return m;
    if (const Message* m = first_eligible(be_, be_head_, sample)) return m;
    if (const Message* m = first_eligible(nrt_, nrt_head_, sample)) return m;
    return nullptr;
  }

  /// The earliest-deadline queued real-time message of connection `id`
  /// -- for a periodic connection its oldest outstanding job -- or
  /// nullptr when none is queued.
  [[nodiscard]] const Message* rt_head_of(ConnectionId id) const {
    for (const Message& m : rt_) {
      if (m.connection == id) return &m;
    }
    return nullptr;
  }

  /// True iff message `id` is still queued.
  [[nodiscard]] bool contains(MessageId id) const {
    return index_.contains(id);
  }

  /// Marks one slot of message `id` as transmitted; removes the message
  /// when its last slot has been sent and returns the completed Message.
  std::optional<Message> consume_slot(MessageId id);

  /// Removes every queued message of a closed connection; returns how
  /// many were dropped.
  std::size_t drop_connection(ConnectionId id);

  /// Re-keys every queued message of connection `id` to a new absolute
  /// deadline (CBS postponement: the server slid its deadline one period
  /// and its whole backlog must follow).  Re-insertion goes through the
  /// normal EDF ordering, so the (arrival, id) tie-break keeps the
  /// server's jobs in FIFO order among themselves.  Returns how many
  /// messages moved.
  std::size_t reschedule_connection(ConnectionId id,
                                    sim::TimePoint deadline);

  /// Removes all queued messages (node failure); returns how many.
  std::size_t clear();

  [[nodiscard]] std::size_t size() const {
    return rt_.size() + be_.size() + nrt_.size();
  }
  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] std::size_t size_of(TrafficClass c) const;

  /// Oldest unexpired deadline in the RT queue (for diagnostics).
  [[nodiscard]] std::optional<sim::TimePoint> earliest_rt_deadline() const;

  /// Pre-sizes queues and index so steady-state operation stays off the
  /// allocator once the high-water mark is reached.
  void reserve(std::size_t messages);

 private:
  static constexpr std::size_t kNoHead = static_cast<std::size_t>(-1);

  /// Where `consume_slot` should look for an id, plus the EDF key it was
  /// inserted with (the key never changes while queued, so a binary
  /// search with it lands exactly on the message).
  struct IndexEntry {
    TrafficClass cls = TrafficClass::kBestEffort;
    sim::TimePoint deadline;
    sim::TimePoint arrival;
  };

  /// Memoised `first_eligible` answer.  Valid while the set is unmutated
  /// (`version` matches), the sample has not moved backwards, and no
  /// message that was skipped for being in the future has arrived.
  struct HeadCache {
    std::uint64_t version = 0;  // 0 never matches (version_ starts at 1)
    sim::TimePoint sample;
    std::size_t index = kNoHead;
    sim::TimePoint min_skipped_arrival = sim::TimePoint::infinity();
  };

  // Sorted vectors (EDF order via insertion; FIFO for NRT).  Traffic is
  // light enough per node that O(n) insertion moves are immaterial, and
  // contiguous storage beats deque chunk churn on the per-slot scan.
  std::vector<Message> rt_;
  std::vector<Message> be_;
  std::vector<Message> nrt_;
  FlatMap64<IndexEntry> index_;
  std::uint64_t version_ = 1;
  mutable HeadCache rt_head_;
  mutable HeadCache be_head_;
  mutable HeadCache nrt_head_;

  void insert_edf(std::vector<Message>& q, const Message& msg);
  [[nodiscard]] const Message* first_eligible(const std::vector<Message>& q,
                                              HeadCache& cache,
                                              sim::TimePoint sample) const {
    if (cache.version == version_ && sample >= cache.sample &&
        sample < cache.min_skipped_arrival) {
      // Unmutated, and nothing skipped last time has arrived by
      // `sample`: the answer cannot have changed.
      return cache.index == kNoHead ? nullptr : &q[cache.index];
    }
    return first_eligible_scan(q, cache, sample);
  }
  [[nodiscard]] const Message* first_eligible_scan(
      const std::vector<Message>& q, HeadCache& cache,
      sim::TimePoint sample) const;
  std::optional<Message> consume_at(std::vector<Message>& q,
                                    std::size_t pos);
  [[nodiscard]] std::size_t locate_sorted(const std::vector<Message>& q,
                                          const IndexEntry& entry,
                                          MessageId id) const;
  std::size_t drop_connection_in(std::vector<Message>& q, ConnectionId id);
  std::size_t reschedule_in(std::vector<Message>& q, ConnectionId id,
                            sim::TimePoint deadline);

  [[nodiscard]] std::vector<Message>& queue_of(TrafficClass c);

  /// Scratch for reschedule_connection (postponements can fire once per
  /// granted slot at budget 1; keep them off the allocator).
  std::vector<Message> resched_scratch_;
};

}  // namespace ccredf::core
