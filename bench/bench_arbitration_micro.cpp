// E12: microbenchmarks of the per-slot protocol machinery (google-
// benchmark).  The master must sort N requests, grant greedily, and the
// codecs must encode/decode the control frames -- all within a slot's
// worth of real time on period hardware; here we show the software model
// costs are negligible next to the simulated timescales.
// Usage: bench_arbitration_micro [--json <path>] [google-benchmark flags]
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "core/arbitration.hpp"
#include "core/edf_queue.hpp"
#include "core/frames.hpp"
#include "core/hypercycle.hpp"
#include "core/priority.hpp"
#include "net/network.hpp"
#include "phy/ring_phy.hpp"
#include "ring/segment.hpp"
#include "sim/rng.hpp"

namespace {

using namespace ccredf;

std::vector<core::Request> random_requests(NodeId n, std::uint64_t seed) {
  sim::Rng rng(seed);
  const ring::RingTopology topo(n);
  std::vector<core::Request> reqs(n);
  for (NodeId i = 0; i < n; ++i) {
    if (rng.bernoulli(0.2)) continue;
    NodeId dst;
    do {
      dst = static_cast<NodeId>(rng.uniform_u64(n));
    } while (dst == i);
    const auto seg =
        ring::Segment::for_transmission(topo, i, NodeSet::single(dst));
    reqs[i].priority = static_cast<core::Priority>(1 + rng.uniform_u64(31));
    reqs[i].links = seg.links();
    reqs[i].dests = NodeSet::single(dst);
  }
  return reqs;
}

void BM_Arbitrate(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  const ring::RingTopology topo(n);
  const core::Arbiter arb(topo, true);
  const auto reqs = random_requests(n, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(arb.arbitrate(reqs, 0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Arbitrate)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_EncodeCollection(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  const core::FrameCodec codec(n, core::PriorityLayout{}, false);
  core::CollectionPacket p;
  p.requests = random_requests(n, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.encode(p));
  }
}
BENCHMARK(BM_EncodeCollection)->Arg(8)->Arg(32)->Arg(64);

void BM_DecodeCollection(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  const core::FrameCodec codec(n, core::PriorityLayout{}, false);
  core::CollectionPacket p;
  p.requests = random_requests(n, 7);
  const auto enc = codec.encode(p);
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.decode_collection(enc));
  }
}
BENCHMARK(BM_DecodeCollection)->Arg(8)->Arg(32)->Arg(64);

void BM_EdfQueuePushPop(benchmark::State& state) {
  const auto depth = state.range(0);
  sim::Rng rng(3);
  for (auto _ : state) {
    core::EdfQueueSet q;
    for (std::int64_t i = 0; i < depth; ++i) {
      core::Message m;
      m.id = static_cast<MessageId>(i + 1);
      m.source = 0;
      m.dests = NodeSet::single(1);
      m.traffic_class = core::TrafficClass::kRealTime;
      m.deadline = sim::TimePoint::origin() +
                   sim::Duration::nanoseconds(
                       static_cast<std::int64_t>(rng.uniform_u64(100000)));
      q.push(m);
    }
    for (std::int64_t i = 0; i < depth; ++i) {
      const auto* head = q.head(sim::TimePoint::infinity());
      benchmark::DoNotOptimize(q.consume_slot(head->id));
    }
  }
  state.SetItemsProcessed(state.iterations() * depth);
}
BENCHMARK(BM_EdfQueuePushPop)->Arg(8)->Arg(64)->Arg(512);

// A planner over `n` nodes carrying one harmonic stream per node
// (periods n, 2n, 4n slots round-robin), built once.
core::HypercyclePlanner harmonic_planner(const phy::RingPhy& phy, NodeId n) {
  core::HypercyclePlanner pl(&phy, ring::RingTopology(n),
                             sim::Duration::microseconds(2),
                             core::HypercyclePlanner::Config{});
  for (NodeId s = 0; s < n; ++s) {
    core::ConnectionParams c;
    c.source = s;
    c.dests = NodeSet::single(static_cast<NodeId>((s + 1) % n));
    c.size_slots = 1;
    c.period_slots = static_cast<std::int64_t>(n) << (s % 3);
    c.offset_slots = s % n;
    pl.add(s, c, c.offset_slots);
  }
  return pl;
}

void BM_PlannerBuild(benchmark::State& state) {
  // Full layout + steady-state extraction + feasibility certificate;
  // this runs at every open/close, so it bounds admission latency.
  const auto n = static_cast<NodeId>(state.range(0));
  const phy::RingPhy phy(phy::optobus(), n, 10.0);
  auto pl = harmonic_planner(phy, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pl.build(sim::TimePoint::origin(), 0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PlannerBuild)->Arg(8)->Arg(32);

void BM_LaxityMapping(benchmark::State& state) {
  const core::LogarithmicMapper mapper;
  const core::PriorityLayout layout;
  std::int64_t laxity = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mapper.map(layout, core::TrafficClass::kRealTime, laxity));
    laxity = (laxity + 97) % 100000;
  }
}
BENCHMARK(BM_LaxityMapping);

void BM_SegmentConstruction(benchmark::State& state) {
  const ring::RingTopology topo(32);
  NodeSet dests;
  dests.insert(5);
  dests.insert(17);
  dests.insert(30);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ring::Segment::for_transmission(topo, 2, dests));
  }
}
BENCHMARK(BM_SegmentConstruction);

void BM_SlotEngine(benchmark::State& state) {
  // Whole-engine throughput: simulated slots per second of host time,
  // under saturated traffic.  This is the number that bounds how long
  // the E1-E14 experiment runs take.
  const auto nodes = static_cast<NodeId>(state.range(0));
  net::NetworkConfig cfg;
  cfg.nodes = nodes;
  net::Network n(cfg);
  sim::Rng rng(1);
  for (auto _ : state) {
    // Keep every queue non-empty so each slot does full work.
    for (NodeId s = 0; s < nodes; ++s) {
      if (n.node(s).queues().size() < 2) {
        NodeId d;
        do {
          d = static_cast<NodeId>(rng.uniform_u64(nodes));
        } while (d == s);
        n.send_best_effort(s, NodeSet::single(d), 1,
                           sim::Duration::milliseconds(1));
      }
    }
    n.run_slots(1);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("slots/s");
}
BENCHMARK(BM_SlotEngine)->Arg(8)->Arg(16)->Arg(64);

// Console output plus a flat metric capture for the --json document.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  explicit CollectingReporter(ccredf::bench::JsonDoc* doc) : doc_(doc) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration) continue;  // skip aggregates
      doc_->set(run.benchmark_name() + ",ns_per_iter",
                run.GetAdjustedRealTime());
      const auto items = run.counters.find("items_per_second");
      if (items != run.counters.end()) {
        doc_->set(run.benchmark_name() + ",items_per_sec",
                  items->second.value);
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  ccredf::bench::JsonDoc* doc_;
};

}  // namespace

int main(int argc, char** argv) {
  auto h = ccredf::bench::Harness::with_foreign_flags("arbitration_micro",
                                                      argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  CollectingReporter reporter(&h.doc());
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return h.finish(/*announce=*/true);
}
