#include "core/hypercycle.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "phy/ring_phy.hpp"
#include "ring/topology.hpp"

namespace ccredf::core {
namespace {

using sim::Duration;
using sim::TimePoint;

constexpr NodeId kNodes = 8;

phy::RingPhy ring8() { return phy::RingPhy(phy::optobus(), kNodes, 10.0); }

Duration slot() { return Duration::microseconds(2); }

HypercyclePlanner planner(const phy::RingPhy& phy,
                          std::int64_t cap = std::int64_t{1} << 16,
                          bool reuse = true) {
  HypercyclePlanner::Config cfg;
  cfg.max_hyperperiod_slots = cap;
  cfg.spatial_reuse = reuse;
  return HypercyclePlanner(&phy, ring::RingTopology(kNodes), slot(), cfg);
}

ConnectionParams conn(NodeId src, NodeId dst, std::int64_t e,
                      std::int64_t p, std::int64_t d = 0) {
  ConnectionParams c;
  c.source = src;
  c.dests = NodeSet::single(dst);
  c.size_slots = e;
  c.period_slots = p;
  c.deadline_slots = d;
  return c;
}

TEST(Hypercycle, EmptySetDoesNotBuild) {
  const auto phy = ring8();
  auto pl = planner(phy);
  EXPECT_FALSE(pl.build(TimePoint::origin(), 0));
  EXPECT_FALSE(pl.valid());
  EXPECT_STREQ(pl.invalid_reason(), "no planned connections");
}

TEST(Hypercycle, SingleConnectionBuilds) {
  const auto phy = ring8();
  auto pl = planner(phy);
  pl.add(0, conn(0, 1, 1, 16), 0);
  ASSERT_TRUE(pl.build(TimePoint::origin(), 0));
  EXPECT_TRUE(pl.valid());
  EXPECT_STREQ(pl.invalid_reason(), "");
  EXPECT_EQ(pl.hyperperiod_slots(), 16);
  // Steady state: exactly one bundle per hyperperiod, one grant.
  ASSERT_EQ(pl.cycle().size(), 1u);
  EXPECT_EQ(pl.cycle()[0].grant_count, 1u);
  EXPECT_EQ(pl.grants(pl.cycle()[0])[0].conn, 0);
  EXPECT_TRUE(pl.is_planned(0));
  EXPECT_FALSE(pl.is_planned(7));
}

TEST(Hypercycle, CoPrimePeriodsUseLcm) {
  const auto phy = ring8();
  auto pl = planner(phy);
  // Co-prime periods: H = lcm(7, 9) = 63.
  pl.add(0, conn(0, 1, 1, 7), 0);
  pl.add(1, conn(4, 5, 1, 9), 0);
  ASSERT_TRUE(pl.build(TimePoint::origin(), 0)) << pl.invalid_reason();
  EXPECT_EQ(pl.hyperperiod_slots(), 63);
  // Each cyclic window completes H/P jobs per connection: 9 + 7 grants.
  std::int64_t grants_c0 = 0;
  std::int64_t grants_c1 = 0;
  for (const auto& b : pl.cycle()) {
    for (std::uint32_t g = 0; g < b.grant_count; ++g) {
      const auto& gr = pl.grants(b)[g];
      if (gr.conn == 0) ++grants_c0;
      if (gr.conn == 1) ++grants_c1;
      EXPECT_TRUE(gr.completes);  // e = 1: every grant completes its job
    }
  }
  EXPECT_EQ(grants_c0, 9);
  EXPECT_EQ(grants_c1, 7);
}

TEST(Hypercycle, HyperperiodCapFallsBack) {
  const auto phy = ring8();
  auto pl = planner(phy, /*cap=*/64);
  // lcm(16, 17, 19) = 5168 > 64: must refuse, never mis-plan.
  pl.add(0, conn(0, 1, 1, 16), 0);
  pl.add(1, conn(2, 3, 1, 17), 0);
  pl.add(2, conn(4, 5, 1, 19), 0);
  EXPECT_FALSE(pl.build(TimePoint::origin(), 0));
  EXPECT_FALSE(pl.valid());
  EXPECT_STREQ(pl.invalid_reason(), "hyperperiod exceeds cap");
}

TEST(Hypercycle, LcmOverflowFallsBack) {
  const auto phy = ring8();
  // A cap near int64 max: the overflow guard (not the cap compare) must
  // catch the product.
  auto pl = planner(phy, std::int64_t{1} << 62);
  pl.add(0, conn(0, 1, 1, (std::int64_t{1} << 31) - 1), 0);
  pl.add(1, conn(2, 3, 1, (std::int64_t{1} << 31) - 99), 0);
  pl.add(2, conn(4, 5, 1, (std::int64_t{1} << 31) - 999), 0);
  EXPECT_FALSE(pl.build(TimePoint::origin(), 0));
  EXPECT_STREQ(pl.invalid_reason(), "hyperperiod exceeds cap");
}

TEST(Hypercycle, DeadlineBeyondPeriodRefused) {
  const auto phy = ring8();
  auto pl = planner(phy);
  // The cursor's FIFO binding allows one outstanding job per connection,
  // so D > P (two live jobs) is out of model.
  ConnectionParams c = conn(0, 1, 1, 8, /*deadline=*/12);
  pl.add(0, c, 0);
  EXPECT_FALSE(pl.build(TimePoint::origin(), 0));
  EXPECT_STREQ(pl.invalid_reason(), "deadline beyond period");
}

TEST(Hypercycle, SpatialReusePacksDisjointSegments) {
  const auto phy = ring8();
  auto pl = planner(phy);
  // Four 1-hop transfers on disjoint quadrants, all same phase/period:
  // spatial reuse must pack them into shared slots.
  for (NodeId i = 0; i < 4; ++i) {
    pl.add(i, conn(static_cast<NodeId>(2 * i),
                   static_cast<NodeId>(2 * i + 1), 1, 8),
           0);
  }
  ASSERT_TRUE(pl.build(TimePoint::origin(), 0)) << pl.invalid_reason();
  EXPECT_DOUBLE_EQ(pl.planned_utilisation(), 0.5);
  bool packed = false;
  for (const auto& b : pl.cycle()) {
    if (b.grant_count > 1) packed = true;
    // Packing invariants: pairwise link-disjoint, master's break link
    // untouched, master is the head grant's source.
    LinkSet taken;
    const LinkId brk = ring::RingTopology(kNodes).break_link(b.master);
    for (std::uint32_t g = 0; g < b.grant_count; ++g) {
      const auto& gr = pl.grants(b)[g];
      EXPECT_FALSE(gr.links.intersects(taken));
      EXPECT_FALSE(gr.links.contains(brk));
      taken |= gr.links;
      EXPECT_TRUE(b.granted.contains(gr.source));
    }
    EXPECT_EQ(b.master, pl.grants(b)[0].source);
  }
  EXPECT_TRUE(packed);
}

TEST(Hypercycle, ReuseOffSerialisesGrants) {
  const auto phy = ring8();
  auto pl = planner(phy, std::int64_t{1} << 16, /*reuse=*/false);
  for (NodeId i = 0; i < 4; ++i) {
    pl.add(i, conn(static_cast<NodeId>(2 * i),
                   static_cast<NodeId>(2 * i + 1), 1, 8),
           0);
  }
  ASSERT_TRUE(pl.build(TimePoint::origin(), 0)) << pl.invalid_reason();
  for (const auto& b : pl.cycle()) EXPECT_EQ(b.grant_count, 1u);
}

TEST(Hypercycle, PlanIndependentOfRegistrationOrder) {
  const auto phy = ring8();
  auto a = planner(phy);
  auto b = planner(phy);
  const std::vector<std::pair<ConnectionId, ConnectionParams>> set = {
      {3, conn(0, 1, 1, 8)},
      {1, conn(2, 3, 2, 16)},
      {9, conn(5, 7, 1, 4)},
  };
  for (const auto& [id, c] : set) a.add(id, c, 0);
  for (auto it = set.rbegin(); it != set.rend(); ++it) {
    b.add(it->first, it->second, 0);
  }
  ASSERT_TRUE(a.build(TimePoint::origin(), 2)) << a.invalid_reason();
  ASSERT_TRUE(b.build(TimePoint::origin(), 2)) << b.invalid_reason();
  ASSERT_EQ(a.prefix().size(), b.prefix().size());
  ASSERT_EQ(a.cycle().size(), b.cycle().size());
  const auto same = [&](const HypercyclePlanner::Bundle& x,
                        const HypercyclePlanner::Bundle& y) {
    EXPECT_EQ(x.master, y.master);
    EXPECT_EQ(x.layout_slot, y.layout_slot);
    EXPECT_EQ(x.release_slot, y.release_slot);
    ASSERT_EQ(x.grant_count, y.grant_count);
    for (std::uint32_t g = 0; g < x.grant_count; ++g) {
      EXPECT_EQ(a.grants(x)[g].conn, b.grants(y)[g].conn);
      EXPECT_EQ(a.grants(x)[g].release_slot, b.grants(y)[g].release_slot);
      EXPECT_EQ(a.grants(x)[g].completes, b.grants(y)[g].completes);
    }
  };
  for (std::size_t i = 0; i < a.prefix().size(); ++i) {
    same(a.prefix()[i], b.prefix()[i]);
  }
  for (std::size_t i = 0; i < a.cycle().size(); ++i) {
    same(a.cycle()[i], b.cycle()[i]);
  }
}

TEST(Hypercycle, CycleLayoutSlotsAreDistinctWithinHyperperiod) {
  const auto phy = ring8();
  auto pl = planner(phy);
  pl.add(0, conn(0, 1, 1, 4), 0);
  pl.add(1, conn(4, 6, 1, 8), 0);
  ASSERT_TRUE(pl.build(TimePoint::origin(), 0)) << pl.invalid_reason();
  // Every cyclic bundle sits at its own cycle-relative offset in [0, H).
  ASSERT_FALSE(pl.cycle().empty());
  std::vector<bool> used(static_cast<std::size_t>(pl.hyperperiod_slots()));
  for (const auto& b : pl.cycle()) {
    ASSERT_GE(b.layout_slot, 0);
    ASSERT_LT(b.layout_slot, pl.hyperperiod_slots());
    const auto off = static_cast<std::size_t>(b.layout_slot);
    EXPECT_FALSE(used[off]) << "two bundles at offset " << off;
    used[off] = true;
  }
}

TEST(Hypercycle, AdmitsPastEq6CeilingWithProof) {
  const auto phy = ring8();
  auto pl = planner(phy);
  // Two 1-hop streams per unit segment, all eight segments: total
  // utilisation 16/8 = 2.0, past any per-slot U_max < 1 -- admissible
  // only because spatial reuse multiplies per-slot GRANT capacity.
  for (NodeId i = 0; i < kNodes; ++i) {
    pl.add(2 * i, conn(i, static_cast<NodeId>((i + 1) % kNodes), 1, 8), 0);
    pl.add(2 * i + 1, conn(i, static_cast<NodeId>((i + 1) % kNodes), 1, 8),
           0);
  }
  ASSERT_TRUE(pl.build(TimePoint::origin(), 0)) << pl.invalid_reason();
  EXPECT_DOUBLE_EQ(pl.planned_utilisation(), 2.0);
}

TEST(Hypercycle, OverSubscriptionMissesDeadline) {
  const auto phy = ring8();
  auto pl = planner(phy);
  // Two connections through the SAME link (0->2 covers 0->1), jointly
  // over unit utilisation: no packing can save this, the feasibility
  // sim must refuse.
  pl.add(0, conn(0, 2, 3, 4), 0);
  pl.add(1, conn(0, 1, 3, 4), 0);
  EXPECT_FALSE(pl.build(TimePoint::origin(), 0));
  EXPECT_FALSE(pl.valid());
}

TEST(Hypercycle, ClearDropsPlanAndConnections) {
  const auto phy = ring8();
  auto pl = planner(phy);
  pl.add(0, conn(0, 1, 1, 8), 0);
  ASSERT_TRUE(pl.build(TimePoint::origin(), 0));
  pl.clear();
  EXPECT_FALSE(pl.valid());
  EXPECT_EQ(pl.connection_count(), 0u);
  EXPECT_FALSE(pl.is_planned(0));
}

}  // namespace
}  // namespace ccredf::core
