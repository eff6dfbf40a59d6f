// E10 (paper §1, §7): parallel-computing services riding the control
// channel -- barrier synchronisation and global reduction.  Measures
// completion latency (after the last arrival/contribution) vs ring size,
// with and without competing data traffic.  Exits 1 unless every round
// of every cell completes for both services with a mean latency of at
// most 2 slot extents.
#include <algorithm>

#include "bench_common.hpp"

#include "services/barrier.hpp"
#include "services/reduce.hpp"

using namespace ccredf;
using namespace ccredf::bench;

namespace {

constexpr int kRounds = 50;

struct ServiceLatency {
  sim::OnlineStats barrier;
  sim::OnlineStats reduce;
};

ServiceLatency measure(NodeId nodes, bool with_data_load,
                       std::uint64_t seed) {
  net::Network n(make_config(nodes, Protocol::kCcrEdf));
  services::BarrierService barrier(n);
  services::GlobalReduceService reduce(n);
  sim::Rng rng(seed);

  std::unique_ptr<workload::PoissonGenerator> gen;
  if (with_data_load) {
    workload::PoissonParams p;
    p.rate_per_node = 1.0;
    p.seed = seed + 1;
    gen = std::make_unique<workload::PoissonGenerator>(
        n, p, sim::TimePoint::origin() + n.timing().slot() * 100000);
  }

  ServiceLatency lat;
  const NodeSet everyone = n.topology().all_nodes();
  for (int round = 0; round < kRounds; ++round) {
    barrier.begin(everyone);
    reduce.begin(everyone, services::ReduceOp::kSum);
    sim::TimePoint last_contribution = sim::TimePoint::origin();
    for (NodeId node = 0; node < nodes; ++node) {
      const auto delay = n.timing().slot() * rng.uniform_int(0, 20);
      n.sim().schedule_in(delay, [&, node] {
        barrier.arrive(node);
        reduce.contribute(node, 1);
        last_contribution = std::max(last_contribution, n.sim().now());
      });
    }
    n.run_slots(40);
    if (barrier.complete()) lat.barrier.add(*barrier.latency());
    if (reduce.complete()) {
      lat.reduce.add(*reduce.completion_time() - last_contribution);
    }
  }
  return lat;
}

}  // namespace

int main(int argc, char** argv) {
  Harness h("services", argc, argv);
  header("E10", "barrier synchronisation and global reduction",
         "Sections 1 and 7 (group-communication services)");

  analysis::Table t("E10: service completion latency after last arrival");
  t.columns({"nodes", "data load", "barrier (us)", "reduction (us)",
             "slot extents"});
  for (const NodeId nodes : {NodeId{4}, NodeId{8}, NodeId{16}, NodeId{32}}) {
    for (const bool loaded : {false, true}) {
      const auto r = measure(nodes, loaded, 11);
      net::Network probe(make_config(nodes, Protocol::kCcrEdf));
      const double extent_us = probe.timing().slot_plus_max_gap().us();
      const double barrier_us = r.barrier.mean() / 1e6;
      const double reduce_us = r.reduce.mean() / 1e6;
      t.row()
          .cell(static_cast<std::int64_t>(nodes))
          .cell(loaded ? "saturated" : "idle")
          .cell(barrier_us, 2)
          .cell(reduce_us, 2)
          .cell(barrier_us / extent_us, 2);
      // The note's claim, gated: every round completes for both services,
      // each within 2 slot extents of its last arrival on average.
      h.gate("E10",
             r.barrier.count() == kRounds && r.reduce.count() == kRounds &&
                 barrier_us <= 2.0 * extent_us &&
                 reduce_us <= 2.0 * extent_us,
             nodes, " nodes, ", loaded ? "saturated" : "idle", ": ",
             r.barrier.count(), "/", r.reduce.count(), " of ", kRounds,
             " rounds, ", barrier_us, "/", reduce_us, " us against a ",
             extent_us, " us slot extent");
    }
  }
  t.note("the services complete within ~1-2 slot extents of the last "
         "arrival regardless of data load: they ride the dedicated "
         "control channel, never competing with data slots");
  t.print(std::cout);
  return h.finish();
}
