// E15 (figure-style series): how the network scales with ring size at a
// fixed relative load -- U_max, latency bound, admitted throughput, miss
// behaviour, and the control-channel overheads that grow with N.
// Simulation points run on the parallel sweep runner (one shard per ring
// size); the analytic columns are computed directly from the timing model.
#include "bench_common.hpp"

#include "core/frames.hpp"
#include "sweep/runner.hpp"

using namespace ccredf;
using namespace ccredf::bench;

int main() {
  header("E15", "scaling with ring size",
         "derived series (no single figure; combines Eq. 1-6)");

  sweep::GridSpec spec;
  spec.protocols = {Protocol::kCcrEdf};
  spec.node_counts = {4, 8, 16, 32, 64};
  spec.utilisations = {0.6};
  spec.set_seeds = {21};
  spec.slots = 6000;
  spec.connections_per_node = 2;
  spec.min_period_slots = 30;
  spec.max_period_slots = 300;
  const sweep::SweepResult res = sweep::run_sweep(spec, {.threads = 0});

  analysis::Table t("E15: N-scaling at fixed 0.6*U_max periodic load");
  t.columns({"nodes", "payload (B)", "U_max", "Eq.4 bound (us)",
             "collection bits", "RT delivered", "user misses",
             "mean RT lat (us)", "goodput"});
  for (const sweep::PointResult& pr : res.points) {
    const NodeId nodes = pr.point.nodes;
    // The point's network, as the shard built it: its auto payload is
    // the one slot-sizing rule (core::ControlTiming::min_payload_bytes).
    const net::Network probe(sweep::make_network_config(spec, pr.point));
    const core::SlotTiming& timing = probe.timing();
    const core::FrameCodec& codec = probe.codec();
    t.row()
        .cell(static_cast<std::int64_t>(nodes))
        .cell(timing.payload_bytes())
        .cell(pr.mean(sweep::Metric::kUMax), 4)
        .cell(timing.worst_case_latency().us(), 2)
        .cell(codec.collection_bits())
        .cell(static_cast<std::int64_t>(pr.mean(sweep::Metric::kRtDelivered)))
        .cell(static_cast<std::int64_t>(pr.mean(sweep::Metric::kUserMisses)))
        .cell(pr.mean(sweep::Metric::kMeanLatencyUs), 2)
        .cell(analysis::format_si(pr.mean(sweep::Metric::kGoodputBps),
                                  "bit/s"));
  }
  t.note("the collection packet grows O(N^2) bits (N requests x N-bit "
         "masks), forcing larger slots and longer latency bounds -- the "
         "reason the paper targets LAN/SAN scale where \"the number of "
         "nodes ... is relatively small\" (Section 1)");
  t.print(std::cout);

  sweep::GridSpec gs;
  gs.protocols = {Protocol::kCcrEdf};
  gs.node_counts = {4, 16, 64};
  gs.utilisations = {0.85};
  gs.set_seeds = {22};
  gs.slots = 5000;
  gs.connections_per_node = 3;
  gs.min_period_slots = 20;
  gs.max_period_slots = 200;
  const sweep::SweepResult guard = sweep::run_sweep(gs, {.threads = 0});

  analysis::Table g("E15b: guarantee holds at every scale");
  g.columns({"nodes", "inversions", "user-miss ratio"});
  for (const sweep::PointResult& pr : guard.points) {
    g.row()
        .cell(static_cast<std::int64_t>(pr.point.nodes))
        .cell(static_cast<std::int64_t>(pr.mean(sweep::Metric::kInversions)))
        .pct(pr.mean(sweep::Metric::kUserMissRatio), 3);
  }
  g.note("zero inversions and zero user misses from 4 to 64 nodes at "
         "0.85 U_max -- the EDF clocking strategy scales within the "
         "paper's intended envelope");
  g.print(std::cout);
  return 0;
}
