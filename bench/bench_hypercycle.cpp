// E23: hypercycle reservation planner -- admitted-utilisation ceiling,
// control-channel occupancy and engine throughput (paper §2 spatial
// reuse turned into a constructive admission proof; DESIGN.md §13).
//
// E23a sweeps the three engines over a fully-periodic 32-node cell whose
// offered load (4 one-hop streams per node, e = 1, P = 32: sum e_i/P_i
// = 4.0) is far past the Eq. 6 per-slot ceiling U_max.  Pure TCMA
// (CCR-EDF, planner off) and CC-FPR must stop admitting at U_max; the
// planner lays the whole hypercycle out, proves the packing feasible
// and admits the full set -- and the run must then deliver every
// message with ZERO deadline misses, with the control channel silent on
// planned slots (requests per slot ~ 0).
//
// E23b times the engine on a busy fully-periodic 32-node cell both
// engines admit identically (0.9 x U_max): nine interleaved pairs of
// back-to-back windows, planner on vs off, in one process; the gated
// speedup is the median of the per-pair ratios, so it compares like host
// phases.  The plan-driven fast-forward must be >= 2x the slot-by-slot
// PR-8 engine (the acceptance claim, gated here, with absolute floors in
// perf_floors.json).
//
// E23c re-runs the planner-axis sweep determinism gates: the report is
// byte-identical across 1-vs-8 worker threads and fast-forward vs
// slot-by-slot, and on fault cells (hooks attach before any open, so no
// plan ever builds) planner-on is a byte-level no-op.
//
// Usage: bench_hypercycle [--quick] [--json <path>]
#include <algorithm>
#include <array>
#include <chrono>
#include <map>
#include <sstream>
#include <string>
#include <utility>

#include "bench_common.hpp"

namespace {

using namespace ccredf;

constexpr NodeId kNodes = 32;
constexpr std::int64_t kPeriod = 32;

std::vector<core::ConnectionParams> one_hop_set(int streams_per_node) {
  std::vector<core::ConnectionParams> set;
  for (int j = 0; j < streams_per_node; ++j) {
    for (NodeId i = 0; i < kNodes; ++i) {
      core::ConnectionParams c;
      c.source = i;
      c.dests = NodeSet::single(static_cast<NodeId>((i + 1) % kNodes));
      c.size_slots = 1;
      c.period_slots = kPeriod;
      // Spread the release phases so the per-slot demand stays even.
      c.offset_slots = static_cast<std::int64_t>(j) * (kPeriod / 4);
      set.push_back(c);
    }
  }
  return set;
}

std::vector<core::ConnectionParams> busy_set(int streams) {
  std::vector<core::ConnectionParams> set;
  for (int k = 0; k < streams; ++k) {
    const auto ku = static_cast<NodeId>(k);
    core::ConnectionParams c;
    c.source = ku % kNodes;
    c.dests = NodeSet::single((c.source + 1 + ku % 4) % kNodes);
    c.size_slots = 1;
    c.period_slots = kPeriod;
    c.offset_slots = (5 * k) % kPeriod;
    set.push_back(c);
  }
  return set;
}

net::NetworkConfig cell_config(bench::Protocol proto, bool planner) {
  net::NetworkConfig cfg = bench::make_config(kNodes, proto);
  cfg.record_inboxes = false;
  cfg.planner = planner;
  return cfg;
}

double requests_per_slot(const net::Network& n) {
  std::int64_t total = 0;
  for (NodeId j = 0; j < n.nodes(); ++j) total += n.stats().node_requests[j];
  return n.stats().slots == 0
             ? 0.0
             : static_cast<double>(total) /
                   static_cast<double>(n.stats().slots);
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Slots/s over one steady-state measurement window of >= min_seconds.
double time_window(net::Network& n, double min_seconds) {
  const std::int64_t slots0 = n.stats().slots;
  const auto t0 = std::chrono::steady_clock::now();
  double elapsed = 0.0;
  do {
    n.run_slots(20'000);
    elapsed = seconds_since(t0);
  } while (elapsed < min_seconds);
  return static_cast<double>(n.stats().slots - slots0) / elapsed;
}

/// Planned-slot fraction of a fresh planner-on cell over its first
/// 25 000 slots.  The timed windows run for a wall-clock-dependent number
/// of slots, so the JSON key is read here instead: a pure function of
/// the connection set.
double fixed_planned_fraction(
    const std::vector<core::ConnectionParams>& set) {
  net::Network n(cell_config(bench::Protocol::kCcrEdf, true));
  (void)bench::open_all(n, set);
  n.run_slots(25'000);
  return n.stats().planned_slot_fraction();
}

struct EngineTiming {
  double best_a = 0.0;  // slots/s, best window
  double best_b = 0.0;
  double ratio = 0.0;   // median over the pairs of rate_a / rate_b
};

/// Steady-state slots/s for two engines (same protocol as E16) over nine
/// window pairs, interleaved a, b, b, a, a, b, ...  The gated ratio is the
/// median of each pair's back-to-back ratio: both windows of a pair see
/// the same host-speed phase, whereas the two sides' best windows may
/// come from different phases.
EngineTiming time_engines(net::Network& a, net::Network& b,
                          double min_seconds) {
  a.run_slots(5'000);  // warm-up
  b.run_slots(5'000);
  constexpr std::size_t kPairs = 9;
  std::array<double, kPairs> ratios{};
  EngineTiming t;
  for (std::size_t rep = 0; rep < kPairs; ++rep) {
    const bool a_first = rep % 2 == 0;
    double rate_a = 0.0;
    double rate_b = 0.0;
    for (const bool on_a : {a_first, !a_first}) {
      (on_a ? rate_a : rate_b) = time_window(on_a ? a : b, min_seconds);
    }
    t.best_a = std::max(t.best_a, rate_a);
    t.best_b = std::max(t.best_b, rate_b);
    ratios[rep] = rate_b > 0.0 ? rate_a / rate_b : 0.0;
  }
  std::nth_element(ratios.begin(), ratios.begin() + kPairs / 2, ratios.end());
  t.ratio = ratios[kPairs / 2];
  return t;
}

// Hexfloat digest of a sweep point's aggregated metrics (bitwise
// statistics equality <=> equal strings).
std::string point_fingerprint(const sweep::PointResult& pr) {
  std::ostringstream os;
  os << std::hexfloat;
  for (std::size_t i = 0; i < sweep::kMetricCount; ++i) {
    const auto& st = pr.metrics[i];
    os << st.count() << ',' << st.mean() << ',' << st.stddev() << ','
       << st.min() << ',' << st.max() << ';';
  }
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("hypercycle", argc, argv);
  const bool quick = h.quick();
  const std::int64_t run_slots = quick ? 6'000 : 20'000;
  const double min_seconds = quick ? 0.05 : 0.4;

  bench::header("E23", "hypercycle reservation planner",
                "admission past Eq. 6 via spatial reuse (paper section 2)");

  // -- E23a: admitted-utilisation ceiling ---------------------------------
  const auto past_umax = one_hop_set(4);
  analysis::Table admit_table("admitted utilisation, offered u = 4.0");
  admit_table.columns({"engine", "admitted", "requested", "admitted_u",
                       "U_max", "sched_miss", "user_miss", "planned",
                       "req/slot"});
  double u_max = 0.0;

  struct Cell {
    const char* key;
    bench::Protocol proto;
    bool planner;
  };
  const Cell cells[] = {
      {"planner", bench::Protocol::kCcrEdf, true},
      {"tcma", bench::Protocol::kCcrEdf, false},
      {"ccfpr", bench::Protocol::kCcFpr, true},  // inert: no plan support
  };
  for (const Cell& cell : cells) {
    net::Network n(cell_config(cell.proto, cell.planner));
    u_max = n.admission().u_max();
    const int admitted = bench::open_all(n, past_umax);
    n.run_slots(run_slots);
    const bench::RunDigest d = bench::digest(n);
    const double admitted_u = n.admission().utilisation();
    const double planned = n.stats().planned_slot_fraction();
    const double reqs = requests_per_slot(n);
    admit_table.row()
        .cell(cell.key)
        .cell(admitted)
        .cell(static_cast<std::int64_t>(past_umax.size()))
        .cell(admitted_u, 3)
        .cell(u_max, 3)
        .cell(d.rt_sched_miss, 4)
        .cell(d.rt_user_miss, 4)
        .cell(planned, 3)
        .cell(reqs, 3);
    const std::string k(cell.key);
    h.set(k + ",admitted_conns", admitted);
    h.set(k + ",admitted_u", admitted_u);
    h.set(k + ",sched_miss_ratio", d.rt_sched_miss);
    h.set(k + ",user_miss_ratio", d.rt_user_miss);
    h.set(k + ",planned_slot_fraction", planned);
    h.set(k + ",control_requests_per_slot", reqs);

    if (cell.planner && cell.proto == bench::Protocol::kCcrEdf) {
      h.gate("E23a",
             admitted == static_cast<int>(past_umax.size()) &&
                 admitted_u > 2.0 * u_max,
             "planner admitted ", admitted, "/", past_umax.size(),
             " (u=", admitted_u, ", U_max=", u_max, ")");
      h.gate("E23a", d.rt_sched_miss == 0.0 && d.rt_user_miss == 0.0,
             "planned past-U_max run missed deadlines");
      // Every slot the plan is engaged either grants a bundle or waits
      // for the next release instant; together they must cover nearly
      // the whole run (the shortfall is the pre-open transient).
      const double plan_driven =
          static_cast<double>(n.stats().planned_slots +
                              n.stats().plan_wait_slots) /
          static_cast<double>(n.stats().slots);
      h.gate("E23a",
             planned > 0.0 && plan_driven >= 0.95 &&
                 n.stats().plan_divergences == 0,
             "plan not in effect (granting fraction ", planned,
             ", plan-driven fraction ", plan_driven, ", divergences ",
             n.stats().plan_divergences, ")");
      h.set("planner,plan_driven_fraction", plan_driven);
      h.set("planner,plan_divergences",
            static_cast<double>(n.stats().plan_divergences));
    } else {
      h.gate("E23a", admitted_u <= u_max + 1e-9, cell.key,
             " admitted past U_max without a plan");
    }
  }
  h.set("u_max", u_max);
  admit_table.print(std::cout);

  // -- E23b: engine throughput on a busy fully-periodic cell --------------
  const int busy_streams =
      static_cast<int>(0.9 * u_max * static_cast<double>(kPeriod));
  const auto busy = busy_set(busy_streams);
  net::Network net_on(cell_config(bench::Protocol::kCcrEdf, true));
  net::Network net_off(cell_config(bench::Protocol::kCcrEdf, false));
  for (net::Network* n : {&net_on, &net_off}) {
    const int admitted = bench::open_all(*n, busy);
    h.gate("E23b", admitted == busy_streams, "engine cell admitted ",
           admitted, "/", busy_streams, " with planner ",
           n == &net_on ? "on" : "off");
  }
  const EngineTiming timing = time_engines(net_on, net_off, min_seconds);
  const double rate_on = timing.best_a;
  const double rate_off = timing.best_b;
  const double planned_on = fixed_planned_fraction(busy);
  const double planned_again = fixed_planned_fraction(busy);
  h.gate("E23b", planned_again == planned_on,
         "planner32 planned_slot_fraction differs between two fresh runs (",
         planned_on, " vs ", planned_again, ")");
  for (net::Network* n : {&net_on, &net_off}) {
    const bench::RunDigest d = bench::digest(*n);
    h.gate("E23b", d.rt_sched_miss == 0.0 && d.rt_user_miss == 0.0,
           "busy cell missed deadlines (planner ",
           n == &net_on ? "on" : "off", ")");
  }
  const double speedup = timing.ratio;
  analysis::Table engine_table("slot engine, 32 nodes, 0.9 x U_max");
  engine_table.columns({"engine", "slots/s", "planned", "speedup"});
  engine_table.row()
      .cell("planner32")
      .cell(rate_on, 0)
      .cell(planned_on, 3)
      .cell(speedup, 2);
  engine_table.row().cell("tcma32").cell(rate_off, 0).cell(0.0, 3).cell(1.0,
                                                                        2);
  engine_table.print(std::cout);
  h.set("planner32,slots_per_sec", rate_on);
  h.set("tcma32,slots_per_sec", rate_off);
  h.set("planner32,planned_slot_fraction", planned_on);
  h.set("engine_speedup", speedup);
#if defined(CCREDF_BENCH_TIMING_UNGATED)
  // Sanitizer/coverage/debug build: instrumentation skews the engines'
  // relative cost, so the ratio is reported but not gated (see
  // bench/CMakeLists.txt; the release CI leg enforces it).
  std::cout << "E23b: speedup gate skipped (instrumented build)\n";
#else
  h.gate("E23b", speedup >= 2.0, "plan-driven fast-forward only ", speedup,
         "x the slot-by-slot engine (< 2x)");
#endif

  // -- E23c: planner-axis sweep determinism -------------------------------
  sweep::GridSpec spec;
  spec.node_counts = {8};
  spec.utilisations = {0.35};
  spec.planners = {false, true};
  spec.repetitions = 2;
  spec.slots = quick ? 600 : 2000;
  spec.min_period_slots = 32;
  spec.max_period_slots = 32;
  spec.base_seed = 23;
  // Fault cells attach hooks before any open: the planner never engages
  // and must be a byte-level no-op, planner counters included.
  sweep::GridSpec faulted = spec;
  faulted.bers = {1e-3};
  faulted.frame_crc = true;
  const sweep::SweepResult fr = sweep::run_sweep(faulted, {.threads = 1});
  const bool noop_identical =
      fr.failed_shards == 0 && fr.points.size() == 2 &&
      point_fingerprint(fr.points[0]) == point_fingerprint(fr.points[1]);
  h.sweep_determinism(
      "E23c", "planner-axis sweep", spec, /*with_fast_forward_leg=*/true,
      std::string("; planner on/off on fault cells: ") +
          (noop_identical ? "byte-identical" : "MISMATCH"));
  h.set("planner_noop_identical", noop_identical ? 1.0 : 0.0);
  h.gate("E23c", noop_identical,
         "enabling the planner changed a cell it cannot plan");
  return h.finish(/*announce=*/true);
}
