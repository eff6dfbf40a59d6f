// Hypercycle-planner engine tests (PROTOCOL.md section 9, DESIGN.md
// section 13): planner-backed admission past the Eq. 6 per-slot ceiling
// with zero misses, exact divergence back to slot-by-slot TCMA on every
// event outside the plan's model, and byte-identical statistics between
// the plan-driven fast-forward and slot-by-slot execution paths.
#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "fault/injector.hpp"
#include "net/network.hpp"
#include "services/resilience.hpp"
#include "sim/rng.hpp"

namespace ccredf::net {
namespace {

using core::ConnectionParams;
using core::TrafficClass;

NetworkConfig cfg8(bool planner = true, bool fast_forward = true) {
  NetworkConfig cfg;
  cfg.nodes = 8;
  cfg.planner = planner;
  cfg.fast_forward = fast_forward;
  cfg.record_inboxes = false;
  return cfg;
}

ConnectionParams conn(NodeId src, NodeId dst, std::int64_t e,
                      std::int64_t p, std::int64_t offset = 0) {
  ConnectionParams c;
  c.source = src;
  c.dests = NodeSet::single(dst);
  c.size_slots = e;
  c.period_slots = p;
  c.offset_slots = offset;
  return c;
}

/// Two 1-hop streams per unit segment on all 8 segments: utilisation
/// 16/8 = 2.0, far past U_max < 1 -- admissible only through the
/// planner's constructive spatial-reuse schedule.
std::vector<ConnectionParams> past_umax_set() {
  std::vector<ConnectionParams> v;
  for (NodeId i = 0; i < 8; ++i) {
    v.push_back(conn(i, static_cast<NodeId>((i + 1) % 8), 1, 8));
    v.push_back(conn(i, static_cast<NodeId>((i + 1) % 8), 1, 8));
  }
  return v;
}

/// Full statistics fingerprint (hexfloat doubles: one flipped mantissa
/// bit fails), planner counters included -- the parity gates cover them.
std::string fingerprint(const Network& n) {
  const auto& st = n.stats();
  std::ostringstream os;
  os << std::hexfloat;
  os << st.slots << ' ' << st.busy_slots << ' ' << st.total_grants << ' '
     << st.reuse_slots << ' ' << st.wasted_grants << ' '
     << st.priority_inversions << ' ' << st.planned_slots << ' '
     << st.plan_wait_slots << ' ' << st.plan_builds << ' '
     << st.plan_divergences << '\n';
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
  os << st.faults.token_losses << ' ' << st.faults.recoveries << ' '
     << n.recoveries() << ' ' << n.sim().events_fired() << '\n';
  return os.str();
}

TEST(Planner, AdmitsPastUmaxWithZeroMisses) {
  Network n(cfg8());
  for (const auto& c : past_umax_set()) {
    ASSERT_TRUE(n.open_connection(c).admitted);
  }
  ASSERT_TRUE(n.plan_valid());
  ASSERT_NE(n.planner(), nullptr);
  EXPECT_DOUBLE_EQ(n.planner()->planned_utilisation(), 2.0);
  EXPECT_GT(n.planner()->planned_utilisation(), n.admission().u_max());
  n.run_slots(20'000);
  const auto& rt = n.stats().cls(TrafficClass::kRealTime);
  EXPECT_GT(rt.delivered, 30'000);
  EXPECT_EQ(rt.scheduling_misses, 0);
  EXPECT_EQ(rt.user_misses, 0);
  EXPECT_GT(n.stats().planned_slots, 0);
  EXPECT_EQ(n.stats().plan_divergences, 0);
  EXPECT_TRUE(n.plan_engaged());
}

TEST(Planner, OffRejectsTheSameSet) {
  Network n(cfg8(/*planner=*/false));
  int rejected = 0;
  for (const auto& c : past_umax_set()) {
    if (!n.open_connection(c).admitted) ++rejected;
  }
  EXPECT_GT(rejected, 0);
  EXPECT_FALSE(n.plan_valid());
  EXPECT_EQ(n.planner(), nullptr);
}

TEST(Planner, InfeasibleOverloadStillRejected) {
  // Two streams through the SAME link (0->2 covers 0->1) at joint
  // utilisation 1.0: spatial reuse cannot overlap them, so the planner's
  // exact simulation must refuse what Eq. 5 already refused -- never a
  // wrong admission.
  Network n(cfg8());
  ASSERT_TRUE(n.open_connection(conn(0, 1, 1, 4)).admitted);
  const auto r = n.open_connection(conn(0, 2, 3, 4));
  EXPECT_FALSE(r.admitted);
  // The feasible first stream stays planned.
  EXPECT_TRUE(n.plan_valid());
  n.run_slots(2'000);
  EXPECT_EQ(n.stats().cls(TrafficClass::kRealTime).user_misses, 0);
}

TEST(Planner, CloseRebuildsOrInvalidates) {
  Network n(cfg8());
  const auto a = n.open_connection(conn(0, 1, 1, 8));
  const auto b = n.open_connection(conn(4, 5, 1, 8));
  ASSERT_TRUE(a.admitted);
  ASSERT_TRUE(b.admitted);
  ASSERT_TRUE(n.plan_valid());
  const auto builds_before = n.stats().plan_builds;
  n.run_slots(100);
  // Mid-stream close: the survivor has released jobs already, so the
  // rebuild refuses (the plan's layout assumes nominal first releases)
  // and the engine falls back to slot-by-slot TCMA -- which serves the
  // under-U_max survivor without misses.
  EXPECT_TRUE(n.close_connection(a.id));
  EXPECT_FALSE(n.plan_valid());
  EXPECT_EQ(n.stats().plan_builds, builds_before);
  n.run_slots(2'000);
  const auto& rt = n.stats().cls(TrafficClass::kRealTime);
  EXPECT_GT(rt.delivered, 200);
  EXPECT_EQ(rt.user_misses, 0);
}

TEST(Planner, FaultHookAttachDiverges) {
  Network n(cfg8());
  ASSERT_TRUE(n.open_connection(conn(0, 1, 1, 8)).admitted);
  ASSERT_TRUE(n.plan_engaged());
  fault::FaultInjector inj(n, 7);
  EXPECT_FALSE(n.plan_engaged());
  EXPECT_EQ(n.stats().plan_divergences, 1);
  n.run_slots(1'000);
  EXPECT_EQ(n.stats().planned_slots, 0);
}

TEST(Planner, ResilienceMonitorAttachDiverges) {
  Network n(cfg8());
  ASSERT_TRUE(n.open_connection(conn(0, 1, 1, 8)).admitted);
  ASSERT_TRUE(n.plan_engaged());
  {
    services::ResilienceMonitor mon(n, services::ResilienceParams{});
    EXPECT_FALSE(n.plan_engaged());
    EXPECT_EQ(n.stats().plan_divergences, 1);
    n.run_slots(1'000);
    EXPECT_EQ(n.stats().planned_slots, 0);
  }
  // With the monitor detached the next admission event can re-plan.
  ASSERT_TRUE(n.open_connection(conn(4, 5, 1, 8, /*offset=*/0)).admitted);
  EXPECT_FALSE(n.plan_valid());  // first stream is mid-release now
}

TEST(Planner, NodeChurnDiverges) {
  Network n(cfg8());
  ASSERT_TRUE(n.open_connection(conn(0, 1, 1, 8)).admitted);
  n.run_slots(64);
  ASSERT_TRUE(n.plan_engaged());
  ASSERT_TRUE(n.fail_node(5));
  EXPECT_FALSE(n.plan_engaged());
  EXPECT_EQ(n.stats().plan_divergences, 1);
  ASSERT_TRUE(n.restore_node(5));
  n.run_slots(1'000);
  EXPECT_EQ(n.stats().plan_divergences, 1);  // sticky, counted once
}

TEST(Planner, AperiodicTrafficDiverges) {
  Network n(cfg8());
  ASSERT_TRUE(n.open_connection(conn(0, 1, 1, 8)).admitted);
  n.run_slots(64);
  ASSERT_TRUE(n.plan_engaged());
  (void)n.send_best_effort(3, NodeSet::single(4), 1,
                           sim::Duration::infinity());
  EXPECT_FALSE(n.plan_engaged());
  n.run_slots(1'000);
  // TCMA serves both the periodic stream and the one-shot message.
  EXPECT_GT(n.stats().cls(TrafficClass::kBestEffort).delivered, 0);
  EXPECT_EQ(n.stats().cls(TrafficClass::kRealTime).user_misses, 0);
}

TEST(Planner, FastForwardVsSlotBySlotByteIdentical) {
  auto run = [](bool fast_forward) {
    Network n(cfg8(/*planner=*/true, fast_forward));
    for (const auto& c : past_umax_set()) {
      EXPECT_TRUE(n.open_connection(c).admitted);
    }
    n.run_slots(20'000);
    return fingerprint(n);
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(Planner, FastForwardVsSlotBySlotByteIdenticalWithOffsets) {
  // Staggered offsets and mixed periods: prefix bundles, waits and
  // cyclic bundles all interleave.
  auto run = [](bool fast_forward) {
    Network n(cfg8(/*planner=*/true, fast_forward));
    EXPECT_TRUE(n.open_connection(conn(0, 1, 1, 8, 3)).admitted);
    EXPECT_TRUE(n.open_connection(conn(2, 4, 2, 16)).admitted);
    EXPECT_TRUE(n.open_connection(conn(5, 6, 1, 12, 7)).admitted);
    n.run_slots(25'000);
    return fingerprint(n);
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(Planner, DivergenceMidRunStaysByteIdentical) {
  // The plan engages, then a best-effort message diverges it mid-run:
  // both engines must switch back to TCMA at the same slot boundary.
  auto run = [](bool fast_forward) {
    Network n(cfg8(/*planner=*/true, fast_forward));
    for (const auto& c : past_umax_set()) {
      EXPECT_TRUE(n.open_connection(c).admitted);
    }
    n.run_slots(5'000);
    (void)n.send_best_effort(3, NodeSet::single(4), 1,
                             sim::Duration::infinity());
    n.run_slots(5'000);
    return fingerprint(n);
  };
  EXPECT_EQ(run(true), run(false));
}

/// Staggered-offset set whose plan interleaves prefix bundles, wait
/// stretches and cyclic bundles; a master killed mid-plan takes the
/// token-loss recovery path from either a busy or a waiting slot.
std::string master_kill_run(bool fast_forward, bool with_acks,
                            std::int64_t kill_slot, std::int64_t kill_frac) {
  NetworkConfig cfg = cfg8(/*planner=*/true, fast_forward);
  cfg.with_acks = with_acks;
  Network n(cfg);
  EXPECT_TRUE(n.open_connection(conn(0, 1, 1, 8, 3)).admitted);
  EXPECT_TRUE(n.open_connection(conn(2, 4, 2, 16)).admitted);
  EXPECT_TRUE(n.open_connection(conn(5, 6, 1, 12, 7)).admitted);
  EXPECT_TRUE(n.plan_engaged());
  if (kill_slot >= 0) {
    // The instant is a fraction of a nominal slot past kill_slot slot
    // durations: it lands in data phases, gaps and exact boundaries.
    const sim::Duration t = n.slot_duration() * kill_slot +
                            n.slot_duration() * kill_frac / 8;
    n.sim().schedule_at(sim::TimePoint::origin() + t,
                        [&n] { (void)n.fail_node(n.current_master()); });
  }
  n.run_slots(3'000);
  if (kill_slot >= 0) {
    EXPECT_FALSE(n.plan_engaged());
    EXPECT_EQ(n.stats().faults.recoveries, 1);
  } else {
    EXPECT_TRUE(n.plan_engaged());
  }
  return fingerprint(n);
}

TEST(Planner, MasterKillWhileEngagedStaysByteIdentical) {
  // The recovery block must account a master death identically whether
  // fast-forward or slot-by-slot stepping runs the slots around it, with
  // the ack wire off and on (planned slots then carry ack bits in every
  // distribution packet).
  for (const bool acks : {false, true}) {
    SCOPED_TRACE(acks ? "with acks" : "without acks");
    EXPECT_EQ(master_kill_run(true, acks, -1, 0),
              master_kill_run(false, acks, -1, 0));
    for (std::int64_t i = 0; i < 40; ++i) {
      const std::int64_t slot = 40 + 23 * i;
      SCOPED_TRACE("kill at slot " + std::to_string(slot));
      EXPECT_EQ(master_kill_run(true, acks, slot, i % 9),
                master_kill_run(false, acks, slot, i % 9));
    }
  }
}

TEST(Planner, OnVsOffByteIdenticalWhenNeverEngaged) {
  // With a fault hook attached before any admission the plan never
  // builds, so planner on/off must be byte-identical -- the sweep's
  // paired-cell gate for fault/churn/BER axes rests on this.
  auto run = [](bool planner) {
    Network n(cfg8(planner));
    fault::FaultInjector inj(n, 7);
    inj.set_control_ber(2e-6);
    inj.schedule_token_loss(1'000);
    for (const auto& c : {conn(0, 1, 1, 16), conn(3, 5, 1, 24)}) {
      EXPECT_TRUE(n.open_connection(c).admitted);
    }
    n.run_slots(8'000);
    return fingerprint(n);
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(Planner, PlannedEngineMatchesUnplannedOutcomes) {
  // On a set BOTH engines admit, planned mode must change nothing a
  // user can observe: same deliveries, same misses, same wall time.
  Network off(cfg8(/*planner=*/false));
  ASSERT_TRUE(off.open_connection(conn(0, 1, 1, 8)).admitted);
  off.run_slots(10'000);
  Network on(cfg8(/*planner=*/true));
  ASSERT_TRUE(on.open_connection(conn(0, 1, 1, 8)).admitted);
  on.run_slots(10'000);
  EXPECT_GT(on.stats().planned_slots, 0);
  EXPECT_EQ(on.stats().cls(TrafficClass::kRealTime).delivered,
            off.stats().cls(TrafficClass::kRealTime).delivered);
  EXPECT_EQ(on.stats().cls(TrafficClass::kRealTime).user_misses, 0);
  EXPECT_EQ(off.stats().cls(TrafficClass::kRealTime).user_misses, 0);
  EXPECT_EQ(on.stats().time_in_slots.ps(), off.stats().time_in_slots.ps());
}

/// The benchmark's busy shape on 32 nodes: one-slot period-32 streams at
/// 0.9 x U_max from a shuffled source order, each 1..4 hops downstream,
/// at distinct release offsets.
std::vector<ConnectionParams> busy32_set(double u_max, std::uint64_t seed) {
  constexpr NodeId kNodes = 32;
  constexpr std::int64_t kPeriod = 32;
  sim::Rng rng(seed);
  const auto streams = static_cast<std::size_t>(0.9 * u_max * kPeriod);
  const auto sources = rng.permutation(kNodes);
  const auto offsets = rng.permutation(kPeriod);
  std::vector<ConnectionParams> v;
  for (std::size_t k = 0; k < streams; ++k) {
    const auto src = static_cast<NodeId>(sources[k % sources.size()]);
    const auto hops = static_cast<NodeId>(rng.uniform_int(1, 4));
    v.push_back(conn(src, static_cast<NodeId>((src + hops) % kNodes), 1,
                     kPeriod, static_cast<std::int64_t>(offsets[k])));
  }
  return v;
}

NetworkConfig cfg32() {
  NetworkConfig cfg = cfg8();
  cfg.nodes = 32;
  return cfg;
}

TEST(Planner, LazyBuildSettlesBeforeTheFaultHookAttaches) {
  // Nothing reads the plan between the opens and the attach: the stale
  // plan must build (once) before the hook is stored, or it could never
  // build and so never diverge.
  Network n(cfg32());
  const auto set = busy32_set(n.admission().u_max(), 1);
  ASSERT_GT(set.size(), 10u);
  for (const auto& c : set) ASSERT_TRUE(n.open_connection(c).admitted);
  EXPECT_EQ(n.stats().plan_builds, 0);  // a burst of opens builds nothing
  fault::FaultInjector inj(n, 7);
  EXPECT_EQ(n.stats().plan_builds, 1);
  EXPECT_EQ(n.stats().plan_divergences, 1);
  EXPECT_FALSE(n.plan_engaged());
}

TEST(Planner, LazyBuildMatchesEagerBuild) {
  // Reading plan_valid() after every open settles each one (the eager
  // order); reading nothing leaves one build for the whole burst.  Apart
  // from the build count the runs must be byte-identical.
  const auto run = [](bool read_each_open) {
    Network n(cfg32());
    for (const auto& c : busy32_set(n.admission().u_max(), 3)) {
      EXPECT_TRUE(n.open_connection(c).admitted);
      if (read_each_open) {
        EXPECT_TRUE(n.plan_valid());
      }
    }
    core::CbsParams cbs;
    cbs.source = 2;
    cbs.dests = NodeSet::single(9);
    cbs.budget_slots = 1;
    cbs.period_slots = 1024;
    EXPECT_TRUE(n.open_cbs_server(cbs).admitted);
    n.run_slots(20'000);
    // Mask the build count (the first line's ninth field).
    std::string fp = fingerprint(n);
    std::size_t at = 0;
    for (int field = 0; field < 8; ++field) at = fp.find(' ', at) + 1;
    fp.replace(at, fp.find(' ', at) - at, "*");
    return std::make_pair(fp, n.stats().plan_builds);
  };
  const auto eager = run(true);
  const auto lazy = run(false);
  EXPECT_EQ(eager.first, lazy.first);
  EXPECT_GT(eager.second, lazy.second);
  EXPECT_EQ(lazy.second, 1);
}

}  // namespace
}  // namespace ccredf::net
