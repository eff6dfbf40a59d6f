// E16: steady-state slot-engine throughput (engineering metric, no paper
// artefact).  Measures simulated slots and discrete events per second of
// host wall time, swept over ring size and admitted periodic load.  Every
// experiment binary is bounded by this number, so it is the repo's
// recorded perf trajectory: --json <path> writes the results
// (BENCH_slot_throughput.json in CI) for run-over-run diffing.
//
// The engine's idle fast-forward (DESIGN.md section 8) is ON by default,
// exactly as every experiment binary runs it; --no-fast-forward times the
// slot-by-slot path instead, so the two JSON documents diffed against
// each other measure the fast-forward speedup.  Each cell also records
// fast_forward_ratio -- the fraction of the first 25 000 slots the engine
// skipped arithmetically, read over that fixed slot count so it is a
// pure function of the cell (gate E16: two fresh runs agree) -- and the
// document records hardware_threads so wall-clock numbers are read
// against the host they came from.  Each
// cell reports the best of five timed repetitions: the fastest pass is
// the closest observable to the engine's real cost on a host with noisy
// neighbours, and the simulation is deterministic regardless.
//
// Usage: bench_slot_throughput [--quick] [--no-fast-forward]
//                              [--json <path>]
#include <chrono>
#include <memory>
#include <string>

#include "bench_common.hpp"

namespace {

using namespace ccredf;

struct Sample {
  double slots_per_sec = 0.0;
  double events_per_sec = 0.0;
  double sim_utilisation = 0.0;  // admitted utilisation actually opened
  double fast_forward_ratio = 0.0;  // skipped / total slots
  int connections = 0;
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Slots the fast-forward ratio is read over (they double as warm-up:
// queues, pools and scratch buffers reach steady state).
constexpr std::int64_t kRatioSlots = 25'000;

struct Cell {
  std::unique_ptr<net::Network> net;
  int connections = 0;
};

/// A fresh network with the cell's periodic set opened.
Cell open_cell(NodeId nodes, double load_fraction, bool fast_forward) {
  net::NetworkConfig cfg = bench::make_config(nodes, bench::Protocol::kCcrEdf);
  cfg.record_inboxes = false;  // unbounded inboxes would dominate memory
  cfg.fast_forward = fast_forward;
  Cell c;
  c.net = std::make_unique<net::Network>(cfg);
  workload::PeriodicSetParams wp;
  wp.nodes = nodes;
  wp.connections = static_cast<int>(nodes);
  wp.total_utilisation = load_fraction * c.net->admission().u_max();
  wp.seed = 42;
  c.connections = bench::open_all(*c.net, workload::make_periodic_set(wp));
  return c;
}

/// Fast-forward ratio over the cell's first kRatioSlots slots.
double fixed_ff_ratio(net::Network& n) {
  n.run_slots(kRatioSlots);
  return n.stats().fast_forward_ratio();
}

Sample run_config(NodeId nodes, double load_fraction, double min_seconds,
                  bool fast_forward) {
  Cell c = open_cell(nodes, load_fraction, fast_forward);
  net::Network& n = *c.net;
  Sample s;
  s.connections = c.connections;
  s.sim_utilisation = n.admission().utilisation();
  s.fast_forward_ratio = fixed_ff_ratio(n);

  // Best of five timed repetitions: wall-clock throughput on a shared
  // or virtualised host dips unpredictably (scheduler preemption, noisy
  // neighbours), and a dip says nothing about the code under test.  The
  // fastest repetition is the closest observable to the engine's actual
  // cost; the simulation itself is deterministic either way.
  constexpr int kRepetitions = 5;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    const std::int64_t slots0 = n.stats().slots;
    const std::uint64_t events0 = n.sim().events_fired();
    const auto t0 = std::chrono::steady_clock::now();
    double elapsed = 0.0;
    do {
      n.run_slots(20'000);
      elapsed = seconds_since(t0);
    } while (elapsed < min_seconds);
    const double slots_per_sec =
        static_cast<double>(n.stats().slots - slots0) / elapsed;
    if (slots_per_sec > s.slots_per_sec) {
      s.slots_per_sec = slots_per_sec;
      s.events_per_sec =
          static_cast<double>(n.sim().events_fired() - events0) / elapsed;
    }
  }
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  ccredf::bench::Harness h("slot_throughput", argc, argv);
  const bool quick = h.quick();
  const bool fast_forward = h.fast_forward();
  const double min_seconds = quick ? 0.05 : 0.4;

  ccredf::bench::header("E16", "slot-engine throughput",
                        "engineering metric (perf trajectory)");
  if (!fast_forward) {
    std::cout << "(idle fast-forward disabled: timing the slot-by-slot"
                 " path)\n\n";
  }

  ccredf::analysis::Table table("slot-engine steady-state throughput");
  table.columns(
      {"nodes", "load", "conns", "util", "slots/s", "events/s", "ff"});

  const ccredf::NodeId node_counts[] = {4, 8, 16, 32};
  const double loads[] = {0.3, 0.6, 0.9};
  for (const auto nodes : node_counts) {
    for (const double load : loads) {
      const Sample s = run_config(nodes, load, min_seconds, fast_forward);
      table.row()
          .cell(static_cast<std::int64_t>(nodes))
          .cell(load, 1)
          .cell(s.connections)
          .cell(s.sim_utilisation, 3)
          .cell(s.slots_per_sec, 0)
          .cell(s.events_per_sec, 0)
          .cell(s.fast_forward_ratio, 3);
      const std::string key = "nodes=" + std::to_string(nodes) +
                              ",load=" + std::to_string(load).substr(0, 3);
      h.set(key + ",slots_per_sec", s.slots_per_sec);
      h.set(key + ",events_per_sec", s.events_per_sec);
      h.set(key + ",fast_forward_ratio", s.fast_forward_ratio);
      Cell again = open_cell(nodes, load, fast_forward);
      const double ratio_again = fixed_ff_ratio(*again.net);
      h.gate("E16", ratio_again == s.fast_forward_ratio, key,
             " fast_forward_ratio differs between two fresh runs (",
             s.fast_forward_ratio, " vs ", ratio_again, ")");
    }
  }
  h.set("fast_forward", fast_forward ? 1.0 : 0.0);
  table.print(std::cout);
  return h.finish(/*announce=*/true);
}
