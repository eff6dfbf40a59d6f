// Hypercycle reservation planner (ROADMAP item 4).
//
// Per-slot greedy EDF arbitration leaves throughput on the table for
// periodic traffic whose entire future is known at admission: Eq. 5
// charges every connection e_i/P_i slots of ring capacity, but a slot
// can carry several segment-disjoint transmissions at once (paper §2
// spatial reuse), so the per-grant capacity of the ring exceeds the
// per-slot capacity U_max of Eq. 6 by the achievable packing factor.
//
// The planner turns that observation into a constructive admission
// proof.  At connection admit/close time it lays the whole grant
// schedule out over the hyperperiod H = lcm(P_i) (capped; overflow or
// an over-cap H falls back cleanly to pure TCMA):
//
//   1. Greedy-EDF layout over four hyperperiod windows: per slot the
//      pending jobs are served earliest-deadline-first, and further
//      jobs are packed into the same slot while their link segments
//      stay pairwise disjoint and avoid the master's clock-break link
//      -- exactly the Arbiter's spatial-reuse rule, applied to the
//      *known* future instead of the sampled present.
//   2. Steady-state extraction: windows 3 and 4 must be the same
//      bundle pattern shifted by H slots (job indices shifted by
//      H/P_i).  The plan is then a finite transient prefix (windows
//      1-2) plus one cyclic window repeated forever.
//   3. Feasibility: a DOMINATING run of the cursor execution model
//      below, in integer picosecond arithmetic -- every slot start is
//      bounded by one wait step past its bundle's release instant, so
//      the run is a monotone upper bound of the exact cursor.  Every
//      completion is checked against its job's absolute deadline, cycle
//      by cycle, until the cycle-boundary offset from the nominal grid
//      stops increasing; from there every later cycle is dominated by
//      an already-checked one, so the check holds forever.  No
//      contraction within the probe bound, or any miss, invalidates
//      the plan (fallback to TCMA, never a wrong admission).
//
// Execution model (mirrored exactly by net::Network's planned mode):
// the plan is an ordered list of bundles consumed by a cursor.  During
// slot k (start T, master m) the next bundle B is *eligible* iff every
// granted job has been released by T, i.e. origin + t_slot *
// release_slot(B) <= T.  If eligible, slot k+1 carries B: it starts at
// T + t_slot + gap(m, master(B)).  Otherwise slot k+1 idles with the
// master unchanged (gap(m, m) > 0: the clock stop/detect bits).
// Because the wire is never consulted, planned slots skip the entire
// collection phase.
#pragma once

#include <cstdint>
#include <vector>

#include "common/nodeset.hpp"
#include "common/types.hpp"
#include "core/clocking.hpp"
#include "core/connection.hpp"
#include "phy/ring_phy.hpp"
#include "ring/topology.hpp"
#include "sim/time.hpp"

namespace ccredf::core {

class HypercyclePlanner {
 public:
  struct Config {
    /// Hyperperiod cap: a connection set whose lcm of periods exceeds
    /// this (or overflows) is simply not planned -- the engine keeps
    /// running pure slot-by-slot TCMA.
    std::int64_t max_hyperperiod_slots = std::int64_t{1} << 16;
    /// Pack segment-disjoint transfers into shared slots (must match
    /// the engine's arbitration setting so planned and unplanned
    /// capacity agree).
    bool spatial_reuse = true;
  };

  /// One granted transmission inside a bundle.  `release_slot` /
  /// deadline are grid-slot indices: absolute for prefix bundles,
  /// relative to the cyclic window origin for cyclic bundles (may be
  /// negative when the job was released in an earlier window).
  struct Grant {
    ConnectionId conn = kNoConnection;
    NodeId source = kInvalidNode;
    NodeId hops = 0;
    LinkSet links;
    NodeSet dests;
    /// True on the job's last slot (message size e_i reached).
    bool completes = false;
    std::int64_t release_slot = 0;
    /// Relative deadline D_i of the connection, in slots.
    std::int64_t deadline_slots = 0;
    /// Source -> furthest-destination propagation, for the completion
    /// check.
    sim::Duration path_delay;
  };

  /// One planned slot: a set of segment-disjoint grants sharing it.
  struct Bundle {
    NodeId master = kInvalidNode;
    /// The granted sources (the distribution packet's grant mask).
    NodeSet granted;
    /// Latest release among the granted jobs -- the bundle is eligible
    /// once the grid instant of this slot index has passed.  Absolute
    /// for prefix bundles, cycle-relative for cyclic ones.
    std::int64_t release_slot = 0;
    /// Nominal layout slot (same coordinates as release_slot); the
    /// steady-state extraction matches windows on it.
    std::int64_t layout_slot = 0;
    std::uint32_t first_grant = 0;
    std::uint32_t grant_count = 0;
  };

  HypercyclePlanner(const phy::RingPhy* phy, ring::RingTopology topo,
                    sim::Duration slot_time, Config cfg);

  /// Drops every registered connection and any built plan.
  void clear();

  /// Registers a periodic connection.  `base_slot` is the grid-slot
  /// index of its first release (the connection's release base must sit
  /// exactly on the t_slot grid; the caller checks alignment).
  void add(ConnectionId id, const ConnectionParams& params,
           std::int64_t base_slot);

  [[nodiscard]] std::size_t connection_count() const { return conns_.size(); }

  /// Lays out, pattern-matches and feasibility-checks the plan for the
  /// registered set, anchored at engine state (`anchor_start`,
  /// `anchor_master`) -- the start and master of the slot whose
  /// decision phase runs next.  Returns valid().
  bool build(sim::TimePoint anchor_start, NodeId anchor_master);

  [[nodiscard]] bool valid() const { return valid_; }
  /// Human-readable cause of the last failed build ("" while valid).
  [[nodiscard]] const char* invalid_reason() const { return reason_; }

  [[nodiscard]] std::int64_t hyperperiod_slots() const { return hyper_; }
  /// Grid slot of cyclic-window occurrence 0, slot offset 0.
  [[nodiscard]] std::int64_t cycle_origin_slot() const {
    return cycle_origin_;
  }
  /// Sum of e_i/P_i over the registered set (may exceed Eq. 6 U_max --
  /// that is the point).
  [[nodiscard]] double planned_utilisation() const;

  /// True iff `id` is covered by the current *valid* plan.
  [[nodiscard]] bool is_planned(ConnectionId id) const {
    return planned_index(id) >= 0;
  }
  /// Dense per-plan index of `id` (pending-queue slot), or -1.
  [[nodiscard]] std::int32_t planned_index(ConnectionId id) const {
    if (!valid_ || id >= conn_index_.size()) return -1;
    return conn_index_[id];
  }

  /// Transient bundles (absolute coordinates), in execution order.
  [[nodiscard]] const std::vector<Bundle>& prefix() const { return prefix_; }
  /// One cyclic window (cycle-relative coordinates), in execution
  /// order; occurrence n lives at grid slots cycle_origin + n*H + rel.
  [[nodiscard]] const std::vector<Bundle>& cycle() const { return cycle_; }
  [[nodiscard]] const Grant* grants(const Bundle& b) const {
    return grants_.data() + b.first_grant;
  }

 private:
  struct ConnInfo {
    ConnectionId id = kNoConnection;
    NodeId source = kInvalidNode;
    NodeId hops = 0;
    LinkSet links;
    NodeSet dests;
    sim::Duration path_delay;
    std::int64_t size = 1;
    std::int64_t period = 1;
    std::int64_t deadline = 1;
    std::int64_t base = 0;
  };

  bool fail(const char* reason);
  bool layout(std::vector<Bundle>& bundles, std::vector<Grant>& grants,
              std::vector<std::int64_t>& grant_jobs, std::int64_t s0,
              std::int64_t horizon_end);
  bool extract_steady_state(const std::vector<Bundle>& bundles,
                            const std::vector<Grant>& grants,
                            const std::vector<std::int64_t>& grant_jobs);
  bool feasible(sim::TimePoint anchor_start, NodeId anchor_master);

  const phy::RingPhy* phy_;
  ring::RingTopology topo_;
  HandoverModel handover_;
  sim::Duration t_slot_;
  Config cfg_;

  std::vector<ConnInfo> conns_;

  bool valid_ = false;
  const char* reason_ = "not built";
  std::int64_t hyper_ = 0;
  std::int64_t cycle_origin_ = 0;
  std::vector<Bundle> prefix_;
  std::vector<Bundle> cycle_;
  std::vector<Grant> grants_;
  std::vector<std::int32_t> conn_index_;
};

}  // namespace ccredf::core
