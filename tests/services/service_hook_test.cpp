// The services on the one slot-hook contract (net::SlotHook).
//
// Parity: each service shape runs twice -- NetworkConfig::fast_forward on
// and off -- and the statistics fingerprint plus the service's own
// outputs must be identical.  A service bounds every idle skip by its own
// deadlines, so fast-forward is invisible to it; the idle-heavy shapes
// must also actually skip, otherwise the parity would hold trivially.
//
// Lifetime: a service destroyed while its messages are still in flight
// detaches from the network, which then runs on safely (the asan preset
// turns a dangling service into a hard failure).
#include <algorithm>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "fault/injector.hpp"
#include "net/network.hpp"
#include "services/admission_agent.hpp"
#include "services/barrier.hpp"
#include "services/flow.hpp"
#include "services/messaging.hpp"
#include "services/reduce.hpp"
#include "services/reliable.hpp"
#include "sim/rng.hpp"
#include "workload/poisson.hpp"

namespace ccredf::services {
namespace {

using core::TrafficClass;
using sim::Duration;
using sim::TimePoint;

std::int64_t ps_of(TimePoint t) { return (t - TimePoint::origin()).ps(); }

std::int64_t ps_of(const std::optional<TimePoint>& t) {
  return t ? ps_of(*t) : -1;
}

/// Full statistics fingerprint (hexfloat doubles: one flipped mantissa
/// bit fails), as in planner_test.cpp; the ff_* telemetry is left out
/// because it counts the skipping itself.
std::string fingerprint(const net::Network& n) {
  const auto& st = n.stats();
  std::ostringstream os;
  os << std::hexfloat;
  os << st.slots << ' ' << st.busy_slots << ' ' << st.total_grants << ' '
     << st.reuse_slots << ' ' << st.wasted_grants << ' '
     << st.priority_inversions << ' ' << st.buffer_drops << '\n';
  os << st.handover_hops.count() << ' ' << st.handover_hops.sum_exact()
     << ' ' << st.handover_hops.variance() << ' ' << st.gap.count() << ' '
     << st.gap.sum_exact() << ' ' << st.gap.variance() << '\n';
  os << st.time_in_slots.ps() << ' ' << st.time_in_gaps.ps() << '\n';
  for (NodeId j = 0; j < n.nodes(); ++j) {
    os << st.node_requests[j] << ' ' << st.node_grants[j] << ' ';
  }
  os << '\n';
  for (const auto cls : {TrafficClass::kRealTime, TrafficClass::kBestEffort,
                         TrafficClass::kNonRealTime}) {
    const auto& c = st.cls(cls);
    os << c.delivered << ' ' << c.scheduling_misses << ' ' << c.user_misses
       << ' ' << c.bytes << ' ' << c.latency.mean() << ' '
       << c.latency.variance() << ' ' << c.latency.min() << ' '
       << c.latency.max() << '\n';
  }
  std::vector<ConnectionId> ids;
  for (const auto& [id, cs] : st.per_connection) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  for (const ConnectionId id : ids) {
    const auto& cs = st.per_connection.at(id);
    os << id << ':' << cs.released << ' ' << cs.delivered << ' '
       << cs.scheduling_misses << ' ' << cs.user_misses << ' '
       << cs.latency.mean() << ' ' << cs.latency.max() << '\n';
  }
  const auto& f = st.faults;
  os << f.token_losses << ' ' << f.payload_corruptions << ' '
     << f.payload_detected << ' ' << f.payload_undetected << ' '
     << f.payload_nacks << ' ' << f.admission_renegotiations << ' '
     << n.sim().events_fired() << ' ' << ps_of(n.sim().now()) << '\n';
  return os.str();
}

struct Outcome {
  std::string stats;
  std::string outputs;
  std::int64_t skipped = 0;
};

Outcome finish(const net::Network& n, const std::ostringstream& out) {
  return Outcome{fingerprint(n), out.str(), n.stats().ff_slots_skipped};
}

net::NetworkConfig config(NodeId nodes, bool fast_forward) {
  net::NetworkConfig cfg;
  cfg.nodes = nodes;
  cfg.fast_forward = fast_forward;
  return cfg;
}

void expect_parity(const Outcome& fast, const Outcome& slow) {
  EXPECT_EQ(fast.stats, slow.stats);
  EXPECT_EQ(fast.outputs, slow.outputs);
  EXPECT_EQ(slow.skipped, 0);
}

// -- barrier + reduce, the E10 shape -----------------------------------------

/// Rounds of a barrier and a sum reduction over every node; arrivals are
/// uniform over the first 20 slots of each 40-slot round, optionally
/// over a Poisson best-effort load.
Outcome collectives_run(NodeId nodes, bool loaded, bool fast_forward) {
  net::Network n(config(nodes, fast_forward));
  BarrierService barrier(n);
  GlobalReduceService reduce(n);
  sim::Rng rng(11);
  std::optional<workload::PoissonGenerator> load;
  if (loaded) {
    workload::PoissonParams p;
    p.rate_per_node = 1.0;
    p.seed = 12;
    load.emplace(n, p, TimePoint::origin() + n.timing().slot() * 100'000);
  }
  std::ostringstream out;
  const NodeSet everyone = n.topology().all_nodes();
  for (int round = 0; round < 20; ++round) {
    barrier.begin(everyone);
    reduce.begin(everyone, ReduceOp::kSum);
    for (NodeId node = 0; node < nodes; ++node) {
      const Duration delay = n.timing().slot() * rng.uniform_int(0, 20);
      n.sim().schedule_in(delay, [&, node] {
        barrier.arrive(node);
        reduce.contribute(node, node + 1);
      });
    }
    n.run_slots(40);
    out << barrier.complete() << ' ' << ps_of(barrier.completion_time())
        << ' ' << reduce.complete() << ' ' << reduce.result().value_or(-1)
        << ' ' << ps_of(reduce.completion_time()) << '\n';
  }
  out << barrier.barriers_completed() << ' ' << reduce.rounds_completed();
  return finish(n, out);
}

class CollectivesParity
    : public ::testing::TestWithParam<std::tuple<NodeId, bool>> {};

TEST_P(CollectivesParity, FastForwardInvisible) {
  const auto [nodes, loaded] = GetParam();
  const Outcome fast = collectives_run(nodes, loaded, true);
  const Outcome slow = collectives_run(nodes, loaded, false);
  expect_parity(fast, slow);
  EXPECT_NE(fast.outputs.find("20 20"), std::string::npos) << fast.outputs;
  // Idle rounds: once every flag is collected nothing pins the engine.
  if (!loaded) {
    EXPECT_GT(fast.skipped, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    E10Shape, CollectivesParity,
    ::testing::Combine(::testing::Values(NodeId{4}, NodeId{8}, NodeId{16},
                                         NodeId{32}),
                       ::testing::Bool()));

// -- reliable channel + admission agent over data BER ------------------------

/// Sparse reliable transfers with the payload CRC and the ack wire on, a
/// fault injector flipping data bits, and admission negotiations over
/// best effort, with the agent's health monitor off or on.
Outcome reliable_run(double data_ber, std::int64_t health_window,
                     bool fast_forward) {
  net::NetworkConfig cfg = config(8, fast_forward);
  cfg.with_acks = true;
  cfg.with_payload_crc = true;
  net::Network n(cfg);
  fault::FaultInjector inj(n, 31);
  if (data_ber > 0.0) inj.set_data_ber(data_ber);
  ReliableChannel::Params rp;
  rp.max_attempts = 8;
  ReliableChannel ch(n, rp);
  AdmissionAgent::Params ap;
  ap.health_window_slots = health_window;
  ap.derate_threshold = 0.005;
  AdmissionAgent agent(n, ap);

  std::ostringstream out;
  const Duration extent = n.timing().slot_plus_max_gap();
  for (NodeId src = 0; src < n.nodes(); ++src) {
    const auto dst = static_cast<NodeId>((src + 3) % n.nodes());
    for (std::int64_t k = 0; k < 40; ++k) {
      const TimePoint at = TimePoint::origin() +
                           extent * (7 + 13 * std::int64_t{src} + 450 * k);
      n.sim().schedule_at(at, [&, src, dst] {
        ch.send(src, dst, 4, extent * 60,
                [&out](const ReliableChannel::TransferResult& r) {
                  out << "transfer " << r.id << ' ' << r.delivered << ' '
                      << r.abandoned << ' ' << r.attempts << ' '
                      << ps_of(r.completed) << '\n';
                });
      });
    }
  }
  for (NodeId k = 1; k < 7; ++k) {
    n.sim().schedule_at(TimePoint::origin() + extent * (50 + 2'900 * k),
                        [&, k] {
                          core::ConnectionParams c;
                          c.source = k;
                          c.dests = NodeSet::single((k + 2) % 8);
                          c.period_slots = 64;
                          agent.request(k, c, [&out](bool ok, ConnectionId id) {
                            out << "admit " << ok << ' ' << id << '\n';
                          });
                        });
  }
  n.run_slots(20'000);
  out << std::hexfloat << ch.transfers_started() << ' '
      << ch.transfers_delivered() << ' ' << ch.transfers_failed() << ' '
      << ch.transfers_abandoned() << ' ' << ch.retransmissions() << ' '
      << ch.nacks_received() << '\n'
      << agent.requests_sent() << ' ' << agent.replies_delivered() << ' '
      << agent.renegotiations() << ' ' << agent.capacity_factor() << ' '
      << agent.observed_corruption_rate() << '\n';
  for (NodeId j = 0; j < n.nodes(); ++j) {
    out << agent.link_corruption_rate(j) << ' ';
  }
  return finish(n, out);
}

class ReliableParity
    : public ::testing::TestWithParam<std::tuple<double, std::int64_t>> {};

TEST_P(ReliableParity, FastForwardInvisible) {
  const auto [ber, window] = GetParam();
  const Outcome fast = reliable_run(ber, window, true);
  const Outcome slow = reliable_run(ber, window, false);
  expect_parity(fast, slow);
  EXPECT_NE(fast.outputs.find("transfer "), std::string::npos);
  if (ber == 0.0) {
    EXPECT_NE(fast.outputs.find("admit 1"), std::string::npos);
  }
  EXPECT_GT(fast.skipped, 0);
}

INSTANTIATE_TEST_SUITE_P(
    DataBer, ReliableParity,
    ::testing::Combine(::testing::Values(0.0, 1e-5, 1e-4),
                       ::testing::Values(std::int64_t{0},
                                         std::int64_t{500})));

// -- messenger + credit flow control ----------------------------------------

Outcome messaging_run(bool fast_forward) {
  net::Network n(config(8, fast_forward));
  Messenger msn(n);
  CreditFlowControl flow(n, /*window=*/2);
  std::ostringstream out;
  for (NodeId i = 0; i < n.nodes(); ++i) {
    msn.set_handler(i, [&out](NodeId self, const Messenger::Received& r) {
      out << "rx " << self << ' ' << r.id << ' ' << r.source << ' '
          << r.payload.size() << ' ' << ps_of(r.completed) << ' '
          << r.met_deadline << '\n';
    });
  }
  const Duration extent = n.timing().slot_plus_max_gap();
  for (std::int64_t k = 0; k < 20; ++k) {
    const auto src = static_cast<NodeId>(k % n.nodes());
    n.sim().schedule_at(
        TimePoint::origin() + extent * (3 + 390 * k), [&, src, k] {
          const std::vector<std::uint8_t> bytes(
              static_cast<std::size_t>(40 + 90 * (k % 4)),
              static_cast<std::uint8_t>(k));
          msn.send_bytes(src, (src + 1) % 8, bytes,
                         TrafficClass::kBestEffort, extent * 200);
          msn.send_short(src, (src + 5) % 8, std::vector<std::uint8_t>(8, 1),
                         extent * 20);
          // A burst past the window: two sends block and drain as the
          // credits come back.
          for (int b = 0; b < 4; ++b) {
            out << flow.send(src, (src + 2) % 8, 1 + b % 2, extent * 300);
          }
          out << '\n';
        });
  }
  n.run_slots(8'000);
  out << msn.messages_received() << ' ' << flow.sends_blocked_total();
  for (NodeId i = 0; i < n.nodes(); ++i) {
    const auto dst = static_cast<NodeId>((i + 2) % 8);
    out << ' ' << flow.credits(i, dst) << '/' << flow.blocked(i, dst);
  }
  return finish(n, out);
}

TEST(MessagingParity, FastForwardInvisible) {
  const Outcome fast = messaging_run(true);
  const Outcome slow = messaging_run(false);
  expect_parity(fast, slow);
  EXPECT_NE(fast.outputs.find("rx "), std::string::npos);
  EXPECT_GT(fast.skipped, 0);
}

// -- lifetime: services detach when destroyed ---------------------------------

static_assert(!std::is_copy_constructible_v<ReliableChannel>);
static_assert(!std::is_copy_constructible_v<AdmissionAgent>);
static_assert(!std::is_copy_constructible_v<BarrierService>);
static_assert(!std::is_copy_constructible_v<GlobalReduceService>);
static_assert(!std::is_copy_constructible_v<CreditFlowControl>);
static_assert(!std::is_copy_constructible_v<Messenger>);

net::NetworkConfig lifetime_config() {
  net::NetworkConfig cfg = config(8, true);
  cfg.with_acks = true;
  cfg.with_payload_crc = true;
  return cfg;
}

/// Runs the network on through the slots that deliver whatever the
/// destroyed service left in flight.
void run_on(net::Network& n, std::int64_t delivered_before) {
  n.run_slots(400);
  EXPECT_GT(n.stats().cls(TrafficClass::kBestEffort).delivered,
            delivered_before);
}

TEST(ServiceLifetime, DestroyedMessengerDetaches) {
  net::Network n(lifetime_config());
  {
    Messenger msn(n);
    msn.set_handler(2, [](NodeId, const Messenger::Received&) {});
    const std::vector<std::uint8_t> bytes(100, 7);
    (void)msn.send_bytes(0, 2, bytes, TrafficClass::kBestEffort,
                         Duration::milliseconds(1));
  }
  run_on(n, 0);
}

TEST(ServiceLifetime, DestroyedFlowControlDetaches) {
  net::Network n(lifetime_config());
  {
    CreditFlowControl flow(n, 1);
    EXPECT_TRUE(flow.send(1, 3, 1, Duration::milliseconds(1)));
    EXPECT_FALSE(flow.send(1, 3, 1, Duration::milliseconds(1)));
  }
  run_on(n, 0);
}

TEST(ServiceLifetime, DestroyedReliableChannelDetaches) {
  net::Network n(lifetime_config());
  fault::FaultInjector inj(n, /*seed=*/9);
  inj.set_data_ber(1e-4);  // some attempts NACKed, some delivered
  {
    ReliableChannel ch(n, ReliableChannel::Params{});
    for (int i = 0; i < 6; ++i) {
      ch.send(0, 4, 2, Duration::milliseconds(1),
              [](const ReliableChannel::TransferResult&) {});
    }
    // Stop at the slot end that saw the first NACK: its resolution is
    // still pending when the channel goes away.
    for (int s = 0; s < 100 && ch.nacks_received() == 0; ++s) {
      n.run_slots(1);
    }
    ASSERT_GT(ch.nacks_received(), 0);
  }
  run_on(n, n.stats().cls(TrafficClass::kBestEffort).delivered);
}

TEST(ServiceLifetime, DestroyedAdmissionAgentDetaches) {
  net::Network n(lifetime_config());
  {
    AdmissionAgent::Params p;
    p.health_window_slots = 50;
    AdmissionAgent agent(n, p);
    core::ConnectionParams c;
    c.source = 3;
    c.dests = NodeSet::single(6);
    c.period_slots = 20;
    agent.request(3, c, [](bool, ConnectionId) {});
  }
  run_on(n, 0);
}

TEST(ServiceLifetime, DestroyedCollectivesDetach) {
  net::Network n(lifetime_config());
  {
    BarrierService barrier(n);
    GlobalReduceService reduce(n);
    barrier.begin(n.topology().all_nodes());
    reduce.begin(n.topology().all_nodes(), ReduceOp::kMax);
    barrier.arrive(0);
    reduce.contribute(0, 5);
  }
  (void)n.send_best_effort(0, NodeSet::single(5), 1,
                           Duration::milliseconds(1));
  run_on(n, 0);
}

}  // namespace
}  // namespace ccredf::services
