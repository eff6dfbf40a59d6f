#include "core/edf_queue.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace ccredf::core {

namespace {
bool edf_before(const Message& a, const Message& b) {
  if (a.deadline != b.deadline) return a.deadline < b.deadline;
  if (a.arrival != b.arrival) return a.arrival < b.arrival;
  return a.id < b.id;
}
}  // namespace

std::vector<Message>& EdfQueueSet::queue_of(TrafficClass c) {
  switch (c) {
    case TrafficClass::kRealTime:
      return rt_;
    case TrafficClass::kBestEffort:
      return be_;
    case TrafficClass::kNonRealTime:
      return nrt_;
  }
  return nrt_;
}

void EdfQueueSet::insert_edf(std::vector<Message>& q, const Message& msg) {
  const auto pos = std::upper_bound(q.begin(), q.end(), msg, edf_before);
  q.insert(pos, msg);
}

void EdfQueueSet::push(const Message& msg) {
  CCREDF_EXPECT(msg.remaining_slots >= 1 && msg.size_slots >= 1,
                "EdfQueueSet: message must need at least one slot");
  index_.insert(msg.id,
                IndexEntry{msg.traffic_class, msg.deadline, msg.arrival});
  if (msg.traffic_class == TrafficClass::kNonRealTime) {
    nrt_.push_back(msg);  // FIFO
  } else {
    insert_edf(queue_of(msg.traffic_class), msg);
  }
  ++version_;
}

const Message* EdfQueueSet::first_eligible_scan(const std::vector<Message>& q,
                                                HeadCache& cache,
                                                sim::TimePoint sample) const {
  cache.version = version_;
  cache.sample = sample;
  cache.index = kNoHead;
  cache.min_skipped_arrival = sim::TimePoint::infinity();
  for (std::size_t i = 0; i < q.size(); ++i) {
    if (q[i].arrival <= sample) {
      cache.index = i;
      return &q[i];
    }
    cache.min_skipped_arrival =
        std::min(cache.min_skipped_arrival, q[i].arrival);
  }
  return nullptr;
}

std::size_t EdfQueueSet::locate_sorted(const std::vector<Message>& q,
                                       const IndexEntry& entry,
                                       MessageId id) const {
  Message probe;
  probe.id = id;
  probe.deadline = entry.deadline;
  probe.arrival = entry.arrival;
  const auto it = std::lower_bound(q.begin(), q.end(), probe, edf_before);
  CCREDF_ASSERT(it != q.end() && it->id == id);
  return static_cast<std::size_t>(it - q.begin());
}

std::optional<Message> EdfQueueSet::consume_at(std::vector<Message>& q,
                                               std::size_t pos) {
  Message& m = q[pos];
  if (--m.remaining_slots > 0) return std::nullopt;
  Message done = std::move(m);
  q.erase(q.begin() + static_cast<std::ptrdiff_t>(pos));
  index_.erase(done.id);
  ++version_;
  return done;
}

std::optional<Message> EdfQueueSet::consume_slot(MessageId id) {
  const IndexEntry* entry = index_.find(id);
  if (entry == nullptr) {
    throw ProtocolError("EdfQueueSet: consume_slot for unknown message");
  }
  std::vector<Message>& q = queue_of(entry->cls);
  if (entry->cls == TrafficClass::kNonRealTime) {
    // FIFO queue: the consumed message is almost always the front.
    for (std::size_t i = 0; i < q.size(); ++i) {
      if (q[i].id == id) return consume_at(q, i);
    }
    throw ProtocolError("EdfQueueSet: consume_slot for unknown message");
  }
  return consume_at(q, locate_sorted(q, *entry, id));
}

std::size_t EdfQueueSet::drop_connection_in(std::vector<Message>& q,
                                            ConnectionId id) {
  std::size_t write = 0;
  for (std::size_t read = 0; read < q.size(); ++read) {
    if (q[read].connection == id) {
      index_.erase(q[read].id);
    } else {
      if (write != read) q[write] = std::move(q[read]);
      ++write;
    }
  }
  const std::size_t dropped = q.size() - write;
  q.erase(q.begin() + static_cast<std::ptrdiff_t>(write), q.end());
  return dropped;
}

std::size_t EdfQueueSet::drop_connection(ConnectionId id) {
  std::size_t dropped = 0;
  for (auto* q : {&rt_, &be_, &nrt_}) {
    dropped += drop_connection_in(*q, id);
  }
  if (dropped > 0) ++version_;
  return dropped;
}

std::size_t EdfQueueSet::reschedule_in(std::vector<Message>& q,
                                       ConnectionId id,
                                       sim::TimePoint deadline) {
  resched_scratch_.clear();
  std::size_t write = 0;
  for (std::size_t read = 0; read < q.size(); ++read) {
    if (q[read].connection == id && q[read].deadline != deadline) {
      resched_scratch_.push_back(std::move(q[read]));
    } else {
      if (write != read) q[write] = std::move(q[read]);
      ++write;
    }
  }
  q.erase(q.begin() + static_cast<std::ptrdiff_t>(write), q.end());
  for (Message& m : resched_scratch_) {
    m.deadline = deadline;
    index_.erase(m.id);
    index_.insert(m.id, IndexEntry{m.traffic_class, m.deadline, m.arrival});
    insert_edf(q, m);
  }
  return resched_scratch_.size();
}

std::size_t EdfQueueSet::reschedule_connection(ConnectionId id,
                                               sim::TimePoint deadline) {
  std::size_t moved = 0;
  for (auto* q : {&rt_, &be_}) {  // NRT is FIFO: no EDF key to move
    moved += reschedule_in(*q, id, deadline);
  }
  if (moved > 0) ++version_;
  return moved;
}

std::size_t EdfQueueSet::clear() {
  const std::size_t n = size();
  rt_.clear();
  be_.clear();
  nrt_.clear();
  index_.clear();
  ++version_;
  return n;
}

std::size_t EdfQueueSet::size_of(TrafficClass c) const {
  switch (c) {
    case TrafficClass::kRealTime:
      return rt_.size();
    case TrafficClass::kBestEffort:
      return be_.size();
    case TrafficClass::kNonRealTime:
      return nrt_.size();
  }
  return 0;
}

std::optional<sim::TimePoint> EdfQueueSet::earliest_rt_deadline() const {
  if (rt_.empty()) return std::nullopt;
  return rt_.front().deadline;
}

void EdfQueueSet::reserve(std::size_t messages) {
  rt_.reserve(messages);
  be_.reserve(messages);
  nrt_.reserve(messages);
  index_.reserve(messages);
}

}  // namespace ccredf::core
