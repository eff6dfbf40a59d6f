// Repository benchmark for the CCR-EDF ring simulator.
//
// One binary, four named workloads, all driven through the library's
// public API (see perfbench/README.md for why each workload exists):
//
//   busy_tcma32     32 nodes, seeded one-slot period-32 streams of 1..4
//                   hops at 0.9 x U_max, planner off (TCMA every slot)
//   busy_planner32  the identical connection set with the planner on
//   faults16        16 nodes, periodic set at 0.6 x U_max plus CBS
//                   flows, control/data BER under CRCs, two churning
//                   nodes under a ResilienceMonitor, one cut/splice
//                   cycle, and a plan that the faults diverge
//   sweep_mixed     a fault-free grid of 3072 short shards run by
//                   sweep::run_sweep, one single-worker call per grid
//                   point, checked against one full-grid call at
//                   min(4, nproc) workers
//
// An engine workload repeats *cells*: set up from the seed (generate,
// construct, open, attach), then simulate a fixed number of slots in
// fixed-size run_slots chunks.  Every cell of a run does identical work,
// so chunk i of every cell is the same computation; slots_per_s charges
// each chunk position its fastest time across a fixed number of cells
// spread over the run, which keeps the figure steady when neighbours on
// a shared host slow whole phases of the run.  The sweep repeats passes
// over the grid and charges each point's run_sweep call the same way.
// Simulated statistics are a pure function of the seed and are
// digested; every cell or pass must reproduce the run's digest.
//
// Usage:
//   perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//             [--trace-out FILE] [--load X]
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}; the exit code is 0 only when every output check passed.
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/connection.hpp"
#include "fault/injector.hpp"
#include "net/network.hpp"
#include "services/cbs.hpp"
#include "services/resilience.hpp"
#include "sim/rng.hpp"
#include "sweep/grid.hpp"
#include "sweep/report.hpp"
#include "sweep/runner.hpp"
#include "workload/aperiodic.hpp"
#include "workload/churn.hpp"
#include "workload/periodic.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_INSTRUMENTED
#define PERFBENCH_INSTRUMENTED 1
#endif

namespace {

using namespace ccredf;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---- metric catalogue -----------------------------------------------------
//
// The names, units and order below are the benchmark's contract with
// BENCHMARK.json (perfbench/tests checks that the two agree).  Every
// workload emits every metric; a layer a workload never reaches reports
// 0 with 0 samples.

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"slots_per_s", "1/s"},        {"shards_per_s", "1/s"},
    {"setup_s", "s"},              {"peak_rss_mb", "MB"},
    {"rt_latency_mean_us", "us"},  {"rt_latency_conn_max_us", "us"},
    {"admitted_u", "ratio"},       {"goodput_mbps", "Mbit/s"},
};

constexpr MetricDef kPerLayer[] = {
    {"rt_user_miss_ratio", "ratio"},
    {"rt_latency_max_us", "us"},
    {"failed_shard_ratio", "ratio"},
    {"sim.events_per_slot", "1/slot"},
    {"core.open_ms_total", "ms"},
    {"core.control_requests_per_slot", "1/slot"},
    {"core.grants_per_busy_slot", "count"},
    {"net.chunk_ns_per_slot_p50", "ns"},
    {"net.chunk_ns_per_slot_p99", "ns"},
    {"net.ff_ratio", "ratio"},
    {"net.ff_slots_per_window", "slots"},
    {"net.planned_slot_fraction", "ratio"},
    {"net.plan_wait_slots", "slots"},
    {"net.plan_builds", "count"},
    {"net.plan_divergences", "count"},
    {"net.busy_slot_fraction", "ratio"},
    {"net.wasted_grants", "count"},
    {"net.construct_us", "us"},
    {"fault.probe_ns_per_slot", "ns"},
    {"fault.token_losses", "count"},
    {"fault.recoveries", "count"},
    {"fault.detected", "count"},
    {"fault.silent", "count"},
    {"fault.payload_corruptions", "count"},
    {"fault.bits_flipped", "count"},
    {"services.downs", "count"},
    {"services.quarantined_conns", "count"},
    {"services.readmit_attempts", "count"},
    {"services.readmissions", "count"},
    {"services.reclaim_error", "ratio"},
    {"services.cbs_postponements", "count"},
    {"workload.gen_us", "us"},
    {"sweep.shard_ms_p50", "ms"},
    {"sweep.shard_ms_p99", "ms"},
    {"sweep.parallel_efficiency", "ratio"},
    {"sweep.shard_setup_us", "us"},
    {"sweep.report_ms", "ms"},
    {"workload.self_ms", "ms"},
    {"core.self_ms", "ms"},
    {"net.self_ms", "ms"},
    {"fault.self_ms", "ms"},
    {"services.self_ms", "ms"},
    {"sweep.self_ms", "ms"},
    {"analysis.self_ms", "ms"},
    {"trace.spans", "count"},
    {"trace.overhead_ratio", "ratio"},
};

struct MetricValue {
  double value = 0.0;
  std::int64_t samples = 0;
};

class MetricSet {
 public:
  void set(const std::string& name, double value, std::int64_t samples) {
    values_[name] = MetricValue{value, samples};
  }
  [[nodiscard]] const MetricValue* find(const std::string& name) const {
    const auto it = values_.find(name);
    return it == values_.end() ? nullptr : &it->second;
  }

 private:
  std::map<std::string, MetricValue> values_;
};

// ---- small statistics -----------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double ratio(std::int64_t num, std::int64_t den) {
  return ratio(static_cast<double>(num), static_cast<double>(den));
}

/// FNV-1a, 64 bit: a compact fingerprint of the simulated statistics.
std::string fnv1a_hex(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
  return buf;
}

/// Peak resident set of this process image (VmHWM).  getrusage's
/// ru_maxrss would also count the parent's pages from before exec.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

// ---- tracing --------------------------------------------------------------
//
// Spans wrap the benchmark's own calls into each library layer; they are
// kept in memory and written out as JSON lines when the run ends.

enum class Layer {
  kBench,
  kWorkload,
  kCore,
  kNet,
  kFault,
  kServices,
  kSweep,
  kAnalysis,
};
constexpr const char* kLayerNames[] = {"bench",    "workload", "core",
                                       "net",      "fault",    "services",
                                       "sweep",    "analysis"};
constexpr std::size_t kLayerCount = 8;

class Tracer {
 public:
  struct Span {
    const char* name;
    Layer layer;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;
    std::int32_t run;
  };

  /// RAII span; a disabled tracer hands out inert scopes.
  class Scope {
   public:
    Scope(Tracer* t, std::int32_t id) : t_(t), id_(id) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (t_ != nullptr) t_->end(id_);
    }

   private:
    Tracer* t_;
    std::int32_t id_;
  };

  Tracer() : epoch_(Clock::now()) {}

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Starts a new run id (one per engine cell or sweep pass).
  void next_run() { ++run_; }

  [[nodiscard]] Scope span(const char* name, Layer layer) {
    if (!enabled_) return Scope(nullptr, -1);
    const auto id = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(Span{name, layer, now_ns(), -1, open_, run_});
    open_ = id;
    return Scope(this, id);
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Per-layer self time (ms): each span's duration minus the part its
  /// direct children cover.
  [[nodiscard]] std::array<double, kLayerCount> self_ms() const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    std::array<double, kLayerCount> out{};
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out[static_cast<std::size_t>(s.layer)] +=
          static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) / 1e6;
    }
    return out;
  }

  bool write_jsonl(const std::string& path) const {
    std::ofstream os(path);
    if (!os) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << "{\"id\": " << i << ", \"name\": \"" << s.name
         << "\", \"layer\": \"" << kLayerNames[static_cast<std::size_t>(
                                        s.layer)]
         << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
         << ", \"parent\": " << s.parent << ", \"run\": " << s.run << "}\n";
    }
    return static_cast<bool>(os);
  }

 private:
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }
  void end(std::int32_t id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_ns = now_ns();
    open_ = s.parent;
  }

  Clock::time_point epoch_;
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::int32_t open_ = -1;
  std::int32_t run_ = 0;
};

// ---- run context ----------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  /// Offered load as a fraction of U_max; 0 keeps the workload default.
  double load = 0.0;
};

/// Output checks: every failure is recorded with its reason.
class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    if (!ok && failures_.size() < 16) failures_.push_back(what);
    if (!ok) ++failed_;
  }
  [[nodiscard]] bool ok() const { return failed_ == 0; }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }

 private:
  std::vector<std::string> failures_;
  std::int64_t failed_ = 0;
};

struct Outcome {
  MetricSet metrics;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::string digest;
  std::map<std::string, std::int64_t> sample_counts;
};

// ---- engine workloads -----------------------------------------------------

struct EngineSpec {
  NodeId nodes = 32;
  bool planner = false;
  bool faults = false;
  double load = 0.9;  // fraction of U_max
  std::int64_t period = 32;
  std::int64_t cell_slots = 1'000'000;
  std::int64_t chunk_slots = 20'000;
  /// Cells the host-time minima are taken over (see sample_indices()).
  std::size_t sample_cells = 32;
};

/// The E23b busy shape, drawn from the seed: one-slot streams of period
/// `period` from sources dealt round-robin over a random node order, each
/// to the node 1..4 hops downstream, with distinct release offsets (at
/// most one release per slot, as in E23b).
std::vector<core::ConnectionParams> busy_set(NodeId nodes,
                                             std::int64_t period,
                                             double u_max, double load,
                                             std::uint64_t seed) {
  sim::Rng rng = sim::Rng::stream(seed, 0x62757379ull /* "busy" */, 0);
  const auto streams = static_cast<std::size_t>(
      load * u_max * static_cast<double>(period));
  const std::vector<std::size_t> sources = rng.permutation(nodes);
  const std::vector<std::size_t> offsets =
      rng.permutation(static_cast<std::size_t>(period));
  std::vector<core::ConnectionParams> set;
  for (std::size_t k = 0; k < streams; ++k) {
    core::ConnectionParams c;
    c.source = static_cast<NodeId>(sources[k % sources.size()]);
    const auto hops = static_cast<NodeId>(rng.uniform_int(1, 4));
    c.dests = NodeSet::single(static_cast<NodeId>((c.source + hops) % nodes));
    c.size_slots = 1;
    c.period_slots = period;
    c.offset_slots = static_cast<std::int64_t>(offsets[k % offsets.size()]);
    set.push_back(c);
  }
  return set;
}

// faults16 scenario constants (slot indices are within one cell).
constexpr double kFaultControlBer = 1e-6;
constexpr double kFaultDataBer = 1e-7;
constexpr int kFaultCbsFlows = 4;
constexpr double kFaultChurnUpSlots = 10'000.0;
constexpr double kFaultChurnDownSlots = 400.0;
constexpr std::int64_t kFaultCutSlot = 15'000;
constexpr std::int64_t kFaultSpliceSlot = 25'000;
constexpr std::int64_t kProbeWindowSlots = 2'000;

/// One engine cell: the network and everything attached to it.  Members
/// are declared in dependency order so destruction detaches the hooks
/// before the network goes away.
struct Cell {
  std::unique_ptr<net::Network> net;
  std::optional<fault::FaultInjector> injector;
  std::optional<services::ResilienceMonitor> monitor;
  std::optional<services::CbsFlowSet> cbs;
  std::optional<workload::AperiodicGenerator> aperiodic;
  std::optional<workload::ChurnProcess> churn;
  int requested = 0;
  int admitted = 0;
  double admitted_u = 0.0;
  std::vector<ConnectionId> rt_ids;  // the hard-RT connections opened
};

struct CellTimes {
  double gen_s = 0.0;
  double construct_s = 0.0;
  double open_s = 0.0;
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::vector<double> chunk_s;
  double probe_s = 0.0;
  std::int64_t probe_slots = 0;
};

net::NetworkConfig engine_config(const EngineSpec& es) {
  sweep::GridSpec spec;
  sweep::GridPoint point;
  point.nodes = es.nodes;
  net::NetworkConfig cfg = sweep::make_network_config(spec, point);
  cfg.record_inboxes = false;
  cfg.planner = es.planner;
  if (es.faults) {
    cfg.with_frame_crc = true;
    cfg.with_payload_crc = true;
    cfg.with_acks = true;
  }
  return cfg;
}

void setup_cell(const EngineSpec& es, std::uint64_t seed, Tracer& tr,
                Cell& cell, CellTimes& t) {
  const auto t0 = Clock::now();
  {
    auto s = tr.span("construct", Layer::kNet);
    cell.net = std::make_unique<net::Network>(engine_config(es));
  }
  net::Network& n = *cell.net;
  const auto t1 = Clock::now();
  std::vector<core::ConnectionParams> set;
  {
    auto s = tr.span("generate", Layer::kWorkload);
    set = busy_set(es.nodes, es.period, n.timing().u_max(), es.load, seed);
  }
  const auto t2 = Clock::now();
  cell.requested = static_cast<int>(set.size());
  for (const core::ConnectionParams& c : set) {
    auto s = tr.span("open_connection", Layer::kCore);
    const net::Network::OpenResult r = n.open_connection(c);
    if (!r.admitted) continue;
    ++cell.admitted;
    cell.rt_ids.push_back(r.id);
  }
  const auto t3 = Clock::now();
  if (es.faults) {
    const sim::Duration extent = n.timing().slot_plus_max_gap();
    const sim::TimePoint until =
        sim::TimePoint::origin() + n.timing().slot() * es.cell_slots;
    {
      // Attaching the injector diverges the plan the opens just built.
      auto s = tr.span("attach_injector", Layer::kFault);
      cell.injector.emplace(n, sim::Rng::stream_seed(seed, 0x666c74ull, 0));
      cell.injector->set_control_ber(kFaultControlBer);
      cell.injector->set_data_ber(kFaultDataBer);
      const LinkId cut = static_cast<LinkId>(es.nodes - 1);
      cell.injector->schedule_link_cut(
          cut, sim::TimePoint::origin() + extent * kFaultCutSlot);
      cell.injector->schedule_link_splice(
          cut, sim::TimePoint::origin() + extent * kFaultSpliceSlot);
    }
    {
      auto s = tr.span("attach_monitor", Layer::kServices);
      cell.monitor.emplace(n, services::ResilienceParams{});
    }
    {
      auto s = tr.span("open_cbs_flows", Layer::kServices);
      services::CbsFlowSetParams cp;
      cp.flows = kFaultCbsFlows;
      cp.first_source = 1;
      cell.cbs.emplace(n, cp);
    }
    const auto g0 = Clock::now();
    {
      auto s = tr.span("generate_aperiodic", Layer::kWorkload);
      workload::AperiodicParams ap;
      ap.rate_per_flow = 0.02;
      ap.seed = sim::Rng::stream_seed(seed, 0x636273ull /* "cbs" */, 0);
      cell.aperiodic.emplace(n, cell.cbs->ids(), ap, until);
    }
    {
      auto s = tr.span("generate_churn", Layer::kWorkload);
      workload::ChurnParams chp;
      chp.nodes.insert(static_cast<NodeId>(es.nodes - 1));
      chp.nodes.insert(static_cast<NodeId>(es.nodes - 2));
      chp.mean_up_slots = kFaultChurnUpSlots;
      chp.mean_down_slots = kFaultChurnDownSlots;
      chp.seed = sim::Rng::stream_seed(seed, 0x636875726Eull /* "churn" */, 0);
      cell.churn.emplace(n, *cell.injector, chp, until);
    }
    t.gen_s += seconds_between(g0, Clock::now());
  }
  const auto t4 = Clock::now();
  cell.admitted_u = n.admission().utilisation();
  t.construct_s = seconds_between(t0, t1);
  t.gen_s += seconds_between(t1, t2);
  t.open_s = seconds_between(t2, t3);
  t.setup_s = seconds_between(t0, t4);
}

/// Times the side-effect-free fault probe over a fixed window ahead of
/// the live slot: the per-slot cost the idle fast-forward pays to clear
/// slots under BER.
void probe_faults(Cell& cell, Tracer& tr, CellTimes& t) {
  if (!cell.injector.has_value()) return;
  auto s = tr.span("first_idle_fault_slot", Layer::kFault);
  const SlotIndex from = cell.net->current_slot();
  const SlotIndex limit = from + kProbeWindowSlots;
  const auto t0 = Clock::now();
  for (SlotIndex at = from; at < limit;) {
    at = cell.injector->first_idle_fault_slot(at, limit) + 1;
  }
  t.probe_s += seconds_between(t0, Clock::now());
  t.probe_slots += kProbeWindowSlots;
}

struct SimSummary {
  std::int64_t rt_released = 0;
  std::int64_t rt_delivered = 0;
  std::int64_t rt_user_misses = 0;
  std::int64_t rt_dropped = 0;
  double rt_latency_mean_us = 0.0;
  double rt_latency_max_us = 0.0;
  double rt_conn_max_us = 0.0;
  double goodput_mbps = 0.0;
  double user_miss_ratio = 0.0;
};

SimSummary summarise(const Cell& cell) {
  const net::Network& n = *cell.net;
  const net::NetworkStats& st = n.stats();
  const net::ClassStats& rt = st.cls(core::TrafficClass::kRealTime);
  SimSummary s;
  // per_connection holds hard-RT connections and CBS servers; CBS
  // releases are exactly the accepted jobs.
  std::int64_t released = 0;
  for (const auto& [id, cs] : st.per_connection) released += cs.released;
  s.rt_released = released - st.cbs.jobs;
  std::int64_t queued = 0;
  for (NodeId j = 0; j < n.nodes(); ++j) {
    queued += static_cast<std::int64_t>(
        cell.net->node(j).queues().size_of(core::TrafficClass::kRealTime));
  }
  s.rt_delivered = rt.delivered;
  s.rt_user_misses = rt.user_misses;
  s.rt_dropped = std::max<std::int64_t>(0, s.rt_released - rt.delivered -
                                               queued);
  s.rt_latency_mean_us = rt.latency.mean() / 1e6;
  s.rt_latency_max_us = rt.latency.max() / 1e6;
  double worst = 0.0;
  for (const ConnectionId id : cell.rt_ids) {
    const auto it = st.per_connection.find(id);
    if (it != st.per_connection.end()) worst += it->second.latency.max();
  }
  s.rt_conn_max_us =
      ratio(worst, static_cast<double>(cell.rt_ids.size())) / 1e6;
  s.goodput_mbps = st.goodput_bps() / 1e6;
  s.user_miss_ratio =
      ratio(s.rt_user_misses + s.rt_dropped, s.rt_released);
  return s;
}

std::string cell_digest(const Cell& cell) {
  const net::Network& n = *cell.net;
  const net::NetworkStats& st = n.stats();
  std::ostringstream os;
  os << std::hexfloat;
  os << st.slots << ',' << st.busy_slots << ',' << st.total_grants << ','
     << st.reuse_slots << ',' << st.wasted_grants << ',' << st.buffer_drops
     << ',' << st.ff_slots_skipped << ',' << st.ff_windows << ','
     << st.planned_slots << ',' << st.plan_wait_slots << ','
     << st.plan_builds << ',' << st.plan_divergences << ','
     << st.time_in_slots.ps() << ',' << st.time_in_gaps.ps() << ';';
  for (const net::ClassStats& c : st.per_class) {
    os << c.delivered << ',' << c.scheduling_misses << ',' << c.user_misses
       << ',' << c.bytes << ',' << c.latency.count() << ','
       << c.latency.mean() << ',' << c.latency.max() << ';';
  }
  const net::FaultStats& f = st.faults;
  os << f.token_losses << ',' << f.detected() << ',' << f.silent() << ','
     << f.recoveries << ',' << f.payload_corruptions << ',' << f.link_cuts
     << ',' << f.segment_quarantines << ',' << st.cbs.jobs << ','
     << st.cbs.postponements << ',' << cell.admitted << ';';
  if (cell.monitor.has_value()) {
    const services::ResilienceStats& rs = cell.monitor->stats();
    os << rs.downs << ',' << rs.readmissions << ',' << rs.weight_reclaimed
       << ',' << rs.weight_readmitted << ';';
  }
  if (cell.injector.has_value()) {
    os << cell.injector->bits_flipped() << ','
       << cell.injector->data_bits_flipped() << ';';
  }
  return fnv1a_hex(os.str());
}

void check_cell(const std::string& workload, const EngineSpec& es,
                const Cell& cell, const SimSummary& s, Checks& checks) {
  const net::NetworkStats& st = cell.net->stats();
  checks.expect(s.rt_released > 0, workload + ": no RT traffic released");
  if (!es.faults) {
    // Eq. 5-6: the whole requested set fits under U_max, and admitted
    // hard-RT traffic on a fault-free ring meets every user deadline.
    checks.expect(cell.admitted == cell.requested,
                  workload + ": admitted " + std::to_string(cell.admitted) +
                      " of " + std::to_string(cell.requested) +
                      " connections");
    checks.expect(s.rt_user_misses == 0 && s.rt_dropped == 0,
                  workload + ": " + std::to_string(s.rt_user_misses) +
                      " RT user misses, " + std::to_string(s.rt_dropped) +
                      " RT drops");
  }
  if (es.planner && !es.faults) {
    checks.expect(st.plan_divergences == 0 && st.planned_slot_fraction() > 0,
                  workload + ": plan not engaged (divergences " +
                      std::to_string(st.plan_divergences) + ")");
  }
  if (es.faults) {
    const double err = cell.monitor->stats().reclaim_error;
    checks.expect(err <= 1e-9, workload + ": reclaim error " +
                                   std::to_string(err) + " > 1e-9");
    checks.expect(st.plan_builds > 0 && st.plan_divergences > 0,
                  workload + ": the plan was not built and diverged");
  }
}

/// Indices of `n` of `count` repeats spread evenly over the run (all of
/// them if there are fewer).  Host-time minima are taken over a fixed
/// number of samples, so a faster build does not look faster still
/// merely because it fitted more repeats into the run.
std::vector<std::size_t> sample_indices(std::size_t count, std::size_t n) {
  std::vector<std::size_t> out;
  if (count <= n || n < 2) {
    for (std::size_t i = 0; i < count; ++i) out.push_back(i);
    return out;
  }
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(i * (count - 1) / (n - 1));
  }
  return out;
}

/// Per-position best-of-cells chunk time; the slots/s every chunk
/// position sustains when the host leaves it alone.
double best_of_cells_rate(const std::vector<const CellTimes*>& cells,
                          std::int64_t chunk_slots) {
  if (cells.empty()) return 0.0;
  const std::size_t positions = cells.front()->chunk_s.size();
  double total = 0.0;
  for (std::size_t p = 0; p < positions; ++p) {
    double best = cells.front()->chunk_s[p];
    for (const CellTimes* c : cells) best = std::min(best, c->chunk_s[p]);
    total += best;
  }
  return ratio(static_cast<double>(chunk_slots) *
                   static_cast<double>(positions),
               total);
}

/// Each vCPU of a shared host flips between a fast mode and one about 2x
/// slower every few hundred ms, independently of the other vCPUs (see
/// README.md).  Engine cells and sweep passes therefore run pinned to
/// one allowed CPU and hop to the next after a step that ran markedly
/// slower than the best time seen for its position, so the best-of
/// figures find the fast mode within one run.  The simulation itself is
/// unaffected.
class CpuHopper {
 public:
  /// `alike`: consecutive positions do the same work (engine chunks), so
  /// a position is also compared with its predecessor's best.
  explicit CpuHopper(bool alike) : alike_(alike) {
    if (sched_getaffinity(0, sizeof original_, &original_) != 0) return;
    for (std::size_t c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &original_)) cpus_.push_back(c);
    }
    if (cpus_.size() > 1) pin();
  }
  CpuHopper(const CpuHopper&) = delete;
  CpuHopper& operator=(const CpuHopper&) = delete;
  ~CpuHopper() {
    if (cpus_.size() > 1) sched_setaffinity(0, sizeof original_, &original_);
  }

  /// Chunk position `pos` took `t` seconds.
  void after_chunk(std::size_t pos, double t) {
    if (pos >= best_.size()) best_.resize(pos + 1, t);
    const double best =
        std::min(best_[pos], alike_ && pos > 0 ? best_[pos - 1] : t);
    best_[pos] = std::min(best_[pos], t);
    if (cpus_.size() > 1 && t > best * kSlowFactor) {
      current_ = (current_ + 1) % cpus_.size();
      pin();
      ++hops_;
    }
  }
  [[nodiscard]] std::int64_t hops() const { return hops_; }

 private:
  static constexpr double kSlowFactor = 1.4;
  void pin() {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[current_], &one);
    sched_setaffinity(0, sizeof one, &one);
  }

  bool alike_;
  cpu_set_t original_{};
  std::vector<std::size_t> cpus_;
  std::size_t current_ = 0;
  std::vector<double> best_;
  std::int64_t hops_ = 0;
};

struct PhaseResult {
  std::vector<CellTimes> cells;
  /// The cells the host-time figures are taken over.
  std::vector<const CellTimes*> sampled;
  double rate = 0.0;
  double setup_s = 0.0;
};

/// Set-ups per engine cell; the fastest one counts.
constexpr int kEngineSetupRepeats = 4;

/// Runs whole cells until `budget_s` is spent (at least `min_cells`).
PhaseResult run_cells(const std::string& workload, const EngineSpec& es,
                      std::uint64_t seed, double budget_s, int min_cells,
                      Tracer& tr, CpuHopper& hopper, Checks& checks,
                      Outcome& out, std::optional<std::string>& digest,
                      std::optional<Cell>& last) {
  PhaseResult ph;
  const auto start = Clock::now();
  double last_cell_s = 0.0;
  for (int c = 0;; ++c) {
    const double elapsed = seconds_between(start, Clock::now());
    if (c >= min_cells && elapsed + last_cell_s > budget_s) break;
    tr.next_run();
    CellTimes t;
    const auto c0 = Clock::now();
    {
      auto root = tr.span("cell", Layer::kBench);
      // Set-up takes microseconds, so it is repeated and its fastest
      // repeat kept; the cell runs on the network of the last one.
      double setup_s = 0.0;
      for (int r = 0; r < kEngineSetupRepeats; ++r) {
        last.reset();
        t = CellTimes{};
        setup_cell(es, seed, tr, last.emplace(), t);
        setup_s = r == 0 ? t.setup_s : std::min(setup_s, t.setup_s);
      }
      t.setup_s = setup_s;
      Cell& cell = *last;
      for (std::int64_t done = 0; done < es.cell_slots;
           done += es.chunk_slots) {
        const auto k0 = Clock::now();
        {
          auto s = tr.span("run_slots", Layer::kNet);
          cell.net->run_slots(es.chunk_slots);
        }
        t.chunk_s.push_back(seconds_between(k0, Clock::now()));
        hopper.after_chunk(t.chunk_s.size() - 1, t.chunk_s.back());
        if (tr.enabled()) probe_faults(cell, tr, t);
      }
    }
    t.wall_s = seconds_between(c0, Clock::now());
    last_cell_s = t.wall_s;
    const Cell& cell = *last;
    const SimSummary s = summarise(cell);
    check_cell(workload, es, cell, s, checks);
    const std::string d = cell_digest(cell);
    if (!digest.has_value()) digest = d;
    checks.expect(d == *digest, workload + ": cell digest " + d +
                                    " differs from " + *digest +
                                    " at the same seed");
    out.attempted += s.rt_released;
    // The guarantee covers every RT message of the fault-free workloads;
    // under faults misses are the injected faults' effect, reported as
    // rt_user_miss_ratio, not as failed operations.
    if (!es.faults) out.failed += s.rt_user_misses + s.rt_dropped;
    ph.cells.push_back(std::move(t));
  }
  for (const std::size_t i : sample_indices(ph.cells.size(), es.sample_cells)) {
    ph.sampled.push_back(&ph.cells[i]);
  }
  ph.rate = best_of_cells_rate(ph.sampled, es.chunk_slots);
  // Set-up runs on the same pinned vCPU as the chunks and meets the same
  // slow modes, so it is taken near the fast end too.  A microsecond
  // figure has rare outliers on the fast side as well, so it is the
  // sampled cells' 10th percentile rather than their minimum.
  std::vector<double> setup;
  for (const CellTimes* t : ph.sampled) setup.push_back(t->setup_s);
  ph.setup_s = quantile(setup, 0.1);
  return ph;
}

/// Per-layer self time summed over the traced phase.
void set_self_times(const Tracer& tr, MetricSet& m) {
  const auto self = tr.self_ms();
  const auto spans = static_cast<std::int64_t>(tr.spans().size());
  for (std::size_t l = 1; l < kLayerCount; ++l) {
    m.set(std::string(kLayerNames[l]) + ".self_ms", self[l], spans);
  }
  m.set("trace.spans", static_cast<double>(tr.spans().size()),
        static_cast<std::int64_t>(tr.spans().size()));
}

Outcome run_engine(const std::string& workload, const EngineSpec& es,
                   const Args& args, Tracer& tr, Checks& checks) {
  Outcome out;
  std::optional<std::string> digest;
  std::optional<Cell> last;
  // Untraced cells give the end-to-end figures; with --trace 1 half the
  // budget runs traced and the rate difference is the tracing overhead.
  const double untraced_budget = args.trace ? args.seconds / 2 : args.seconds;
  CpuHopper hopper(true);
  PhaseResult plain = run_cells(workload, es, args.seed, untraced_budget, 2,
                                tr, hopper, checks, out, digest, last);
  PhaseResult traced;
  if (args.trace) {
    tr.set_enabled(true);
    traced = run_cells(workload, es, args.seed, args.seconds / 2, 2, tr,
                       hopper, checks, out, digest, last);
    tr.set_enabled(false);
  }
  const Cell& cell = *last;
  const SimSummary s = summarise(cell);
  const net::NetworkStats& st = cell.net->stats();
  MetricSet& m = out.metrics;

  std::vector<double> gen, construct, open;
  for (const CellTimes& t : plain.cells) {
    gen.push_back(t.gen_s * 1e6);
    construct.push_back(t.construct_s * 1e6);
    open.push_back(t.open_s * 1e3);
  }
  const auto cells = static_cast<std::int64_t>(plain.cells.size());
  const auto sampled = static_cast<std::int64_t>(plain.sampled.size());
  const auto positions =
      static_cast<std::int64_t>(plain.cells.front().chunk_s.size());
  m.set("slots_per_s", plain.rate, sampled * positions);
  // A cell's best-case cost: set-up plus the best-of-cells chunk times.
  m.set("shards_per_s",
        ratio(1.0, plain.setup_s +
                       static_cast<double>(es.cell_slots) / plain.rate),
        sampled);
  m.set("setup_s", plain.setup_s, sampled);
  m.set("peak_rss_mb", peak_rss_mb(), 1);
  m.set("rt_latency_mean_us", s.rt_latency_mean_us, s.rt_delivered);
  m.set("rt_latency_max_us", s.rt_latency_max_us, s.rt_delivered);
  m.set("rt_latency_conn_max_us", s.rt_conn_max_us, cell.admitted);
  m.set("admitted_u", cell.admitted_u, cell.admitted);
  m.set("goodput_mbps", s.goodput_mbps, st.slots);

  m.set("rt_user_miss_ratio", s.user_miss_ratio, s.rt_released);
  m.set("sim.events_per_slot",
        ratio(static_cast<std::int64_t>(cell.net->sim().events_fired()),
              st.slots),
        st.slots);
  m.set("core.open_ms_total", median(open), cells);
  std::int64_t requests = 0;
  for (const std::int64_t r : st.node_requests) requests += r;
  m.set("core.control_requests_per_slot", ratio(requests, st.slots),
        st.slots);
  m.set("core.grants_per_busy_slot", st.mean_grants_per_busy_slot(),
        st.busy_slots);
  const std::vector<CellTimes>& layer_cells =
      args.trace ? traced.cells : plain.cells;
  std::vector<double> ns_per_slot;
  for (const CellTimes& t : layer_cells) {
    for (const double c : t.chunk_s) {
      ns_per_slot.push_back(c * 1e9 / static_cast<double>(es.chunk_slots));
    }
  }
  const auto chunks = static_cast<std::int64_t>(ns_per_slot.size());
  m.set("net.chunk_ns_per_slot_p50", quantile(ns_per_slot, 0.5), chunks);
  m.set("net.chunk_ns_per_slot_p99", quantile(ns_per_slot, 0.99), chunks);
  m.set("net.ff_ratio", st.fast_forward_ratio(), st.slots);
  m.set("net.ff_slots_per_window", ratio(st.ff_slots_skipped, st.ff_windows),
        st.ff_windows);
  m.set("net.planned_slot_fraction", st.planned_slot_fraction(), st.slots);
  m.set("net.plan_wait_slots", static_cast<double>(st.plan_wait_slots),
        st.slots);
  m.set("net.plan_builds", static_cast<double>(st.plan_builds), 1);
  m.set("net.plan_divergences", static_cast<double>(st.plan_divergences), 1);
  m.set("net.busy_slot_fraction", ratio(st.busy_slots, st.slots), st.slots);
  m.set("net.wasted_grants", static_cast<double>(st.wasted_grants), 1);
  m.set("net.construct_us", median(construct), cells);

  double probe_s = 0.0;
  std::int64_t probe_slots = 0;
  for (const CellTimes& t : layer_cells) {
    probe_s += t.probe_s;
    probe_slots += t.probe_slots;
  }
  m.set("fault.probe_ns_per_slot",
        ratio(probe_s * 1e9, static_cast<double>(probe_slots)), probe_slots);
  const net::FaultStats& f = st.faults;
  m.set("fault.token_losses", static_cast<double>(f.token_losses), 1);
  m.set("fault.recoveries", static_cast<double>(cell.net->recoveries()), 1);
  m.set("fault.detected", static_cast<double>(f.detected()), 1);
  m.set("fault.silent", static_cast<double>(f.silent()), 1);
  m.set("fault.payload_corruptions",
        static_cast<double>(f.payload_corruptions), 1);
  const std::int64_t flipped =
      cell.injector.has_value() ? cell.injector->bits_flipped() +
                                      cell.injector->data_bits_flipped()
                                : 0;
  m.set("fault.bits_flipped", static_cast<double>(flipped), 1);
  services::ResilienceStats rs;
  if (cell.monitor.has_value()) rs = cell.monitor->stats();
  m.set("services.downs", static_cast<double>(rs.downs), 1);
  m.set("services.quarantined_conns",
        static_cast<double>(rs.connections_quarantined +
                            rs.servers_quarantined + rs.segment_quarantines),
        1);
  m.set("services.readmit_attempts", static_cast<double>(rs.readmit_attempts),
        1);
  m.set("services.readmissions", static_cast<double>(rs.readmissions), 1);
  m.set("services.reclaim_error", rs.reclaim_error, rs.downs);
  m.set("services.cbs_postponements",
        static_cast<double>(st.cbs.postponements), 1);
  m.set("workload.gen_us", median(gen), cells);
  if (args.trace) {
    set_self_times(tr, m);
    m.set("trace.overhead_ratio", ratio(plain.rate, traced.rate) - 1.0,
          static_cast<std::int64_t>(traced.cells.size()));
  }

  out.digest = *digest;
  out.sample_counts["cells"] = cells;
  out.sample_counts["sampled_cells"] = sampled;
  out.sample_counts["chunks_per_cell"] = positions;
  out.sample_counts["chunk_slots"] = es.chunk_slots;
  out.sample_counts["cell_slots"] = es.cell_slots;
  out.sample_counts["cpu_hops"] = hopper.hops();
  out.sample_counts["traced_cells"] =
      static_cast<std::int64_t>(traced.cells.size());
  return out;
}

// ---- sweep workload -------------------------------------------------------

/// sweep_mixed: 4..32 nodes x light/heavy load x churn x one cut x CBS x
/// planner, 24 repetitions of 1000-slot shards (3072 shards).  Fault-free
/// in the BER sense: BER cells cost ~20x a clean one and would swamp the
/// runner; faults16 carries that cost.
std::string sweep_grid_text(std::uint64_t seed) {
  return "nodes = 4, 8, 16, 32\n"
         "utilisations = 0.3, 0.85\n"
         "churns = 0, 500\n"
         "link_cuts = 0, 1\n"
         "services = rt-only, cbs\n"
         "planners = off, on\n"
         "repetitions = 24\n"
         "slots = 1000\n"
         "min_period_slots = 64\n"
         "max_period_slots = 64\n"
         "cut_slot = 250\n"
         "cut_down_slots = 250\n"
         "base_seed = " +
         std::to_string(seed) + "\n";
}

int sweep_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 4u));
}

/// The grid, and one single-point grid per point of it.  A point's grid
/// runs exactly the shards that point runs in the full grid: shard seeds
/// depend on a point's values, not on its position.
struct SweepGrids {
  sweep::GridSpec spec;
  std::vector<sweep::GridSpec> points;
};

SweepGrids sweep_setup(const std::string& text, Tracer& tr, Checks& checks) {
  auto s = tr.span("grid_setup", Layer::kSweep);
  SweepGrids g;
  std::string error;
  checks.expect(sweep::parse_grid(text, g.spec, error),
                "sweep_mixed: grid parse failed: " + error);
  const std::string invalid = g.spec.validate();
  checks.expect(invalid.empty(), "sweep_mixed: invalid grid: " + invalid);
  const std::vector<sweep::GridPoint> points = g.spec.expand();
  checks.expect(points.size() == g.spec.point_count(),
                "sweep_mixed: expand() size mismatch");
  for (const sweep::GridPoint& p : points) {
    sweep::GridSpec one = g.spec;
    one.protocols = {p.protocol};
    one.node_counts = {p.nodes};
    one.utilisations = {p.utilisation};
    one.bers = {p.ber};
    one.data_bers = {p.data_ber};
    one.churns = {p.churn};
    one.link_cuts = {p.link_cuts};
    one.mixes = {p.mix};
    one.services = {p.service};
    one.planners = {p.planner};
    one.set_seeds = {p.set_seed};
    g.points.push_back(std::move(one));
  }
  return g;
}

/// Runs every point's grid through sweep::run_sweep on one worker,
/// timing each call, and folds the results into the report the full
/// grid would give.
sweep::SweepResult run_point_grids(const SweepGrids& g, Tracer& tr,
                                   CpuHopper& hopper,
                                   std::vector<double>& point_s) {
  sweep::SweepResult all;
  all.spec = g.spec;
  point_s.clear();
  for (std::size_t i = 0; i < g.points.size(); ++i) {
    const auto t0 = Clock::now();
    sweep::SweepResult r;
    {
      auto s = tr.span("run_sweep", Layer::kSweep);
      r = sweep::run_sweep(g.points[i], {.threads = 1});
    }
    point_s.push_back(seconds_between(t0, Clock::now()));
    hopper.after_chunk(i, point_s.back());
    for (sweep::PointResult& pr : r.points) {
      pr.point.index = all.points.size();
      all.points.push_back(std::move(pr));
    }
    all.shards += r.shards;
    all.failed_shards += r.failed_shards;
  }
  return all;
}

struct CleanCellCounters {
  std::int64_t slots = 0;
  std::int64_t events = 0;
  std::int64_t requests = 0;
  std::int64_t busy = 0;
  std::int64_t grants = 0;
  std::int64_t ff = 0;
  std::int64_t ff_windows = 0;
  std::int64_t plan_wait = 0;
  std::int64_t wasted = 0;
  std::int64_t conns = 0;
  double conn_max_us_sum = 0.0;
  std::vector<double> construct_us;
  std::vector<double> gen_us;
  std::vector<double> setup_us;  // construct + generate + open
  std::vector<double> open_ms;
  std::vector<double> ns_per_slot;
};

/// Re-runs a fault-free, rt-only shard configuration slot for slot
/// through the public API to read the engine counters the sweep report
/// does not carry (fast-forward, events, control requests).  Its set-up
/// makes the same public calls run_shard makes: network construction,
/// set generation and admission.
void replay_clean_cell(const sweep::GridSpec& spec, const sweep::GridPoint& p,
                       int rep, Tracer& tr, CleanCellCounters& cc) {
  auto root = tr.span("clean_cell", Layer::kBench);
  const auto t0 = Clock::now();
  std::optional<net::Network> n;
  {
    auto s = tr.span("construct", Layer::kNet);
    n.emplace(sweep::make_network_config(spec, p));
  }
  const auto t1 = Clock::now();
  workload::PeriodicSetParams wp;
  wp.nodes = p.nodes;
  wp.connections = spec.connections_per_node * static_cast<int>(p.nodes);
  wp.total_utilisation = p.utilisation * n->timing().u_max();
  wp.min_period_slots = spec.min_period_slots;
  wp.max_period_slots = spec.max_period_slots;
  wp.seed = sweep::shard_seed(spec, p, rep);
  std::vector<core::ConnectionParams> set;
  {
    auto s = tr.span("generate", Layer::kWorkload);
    set = workload::make_periodic_set(wp);
  }
  const auto t2 = Clock::now();
  std::vector<ConnectionId> ids;
  for (const core::ConnectionParams& c : set) {
    auto s = tr.span("open_connection", Layer::kCore);
    const net::Network::OpenResult r = n->open_connection(c);
    if (r.admitted) ids.push_back(r.id);
  }
  const auto t3 = Clock::now();
  {
    auto s = tr.span("run_slots", Layer::kNet);
    n->run_slots(spec.slots);
  }
  const auto t4 = Clock::now();
  const net::NetworkStats& st = n->stats();
  cc.construct_us.push_back(seconds_between(t0, t1) * 1e6);
  cc.gen_us.push_back(seconds_between(t1, t2) * 1e6);
  cc.open_ms.push_back(seconds_between(t2, t3) * 1e3);
  cc.setup_us.push_back(seconds_between(t0, t3) * 1e6);
  cc.ns_per_slot.push_back(seconds_between(t3, t4) * 1e9 /
                           static_cast<double>(spec.slots));
  cc.slots += st.slots;
  cc.events += static_cast<std::int64_t>(n->sim().events_fired());
  for (const std::int64_t r : st.node_requests) cc.requests += r;
  cc.busy += st.busy_slots;
  cc.grants += st.total_grants;
  cc.ff += st.ff_slots_skipped;
  cc.ff_windows += st.ff_windows;
  cc.plan_wait += st.plan_wait_slots;
  cc.wasted += st.wasted_grants;
  for (const ConnectionId id : ids) {
    const auto it = st.per_connection.find(id);
    if (it == st.per_connection.end()) continue;
    cc.conn_max_us_sum += it->second.latency.max() / 1e6;
    ++cc.conns;
  }
}

/// Repetitions of each clean cell replayed: per-connection worst
/// latencies average over ~1800 connections.
constexpr int kCleanCellReps = 8;

/// Sweep passes whose per-point times shards_per_s takes its best over
/// (a 30 s run fits about 20).
constexpr std::size_t kSamplePasses = 12;

struct SweepPass {
  std::vector<double> point_s;  // one run_sweep call per grid point
  double run_s = 0.0;
  double report_s = 0.0;
  std::int64_t shards = 0;
};

/// Shards per second when every point's run_sweep call is charged its
/// fastest time across the sampled passes, like the engine cells' chunk
/// positions.
double best_of_passes_rate(const std::vector<SweepPass>& passes,
                           std::int64_t& sampled) {
  const std::vector<std::size_t> idx =
      sample_indices(passes.size(), kSamplePasses);
  sampled = static_cast<std::int64_t>(idx.size());
  if (idx.empty()) return 0.0;
  double total = 0.0;
  for (std::size_t p = 0; p < passes[idx.front()].point_s.size(); ++p) {
    double best = passes[idx.front()].point_s[p];
    for (const std::size_t i : idx) best = std::min(best, passes[i].point_s[p]);
    total += best;
  }
  return ratio(static_cast<double>(passes[idx.front()].shards), total);
}

Outcome run_sweep_workload(const Args& args, Tracer& tr, Checks& checks) {
  Outcome out;
  const std::string text = sweep_grid_text(args.seed);
  const int workers = sweep_workers();
  std::optional<sweep::SweepResult> last;

  // Set-up (grid parse, validation, expansion and the per-point grids:
  // what precedes the first shard claim) takes microseconds, so it is
  // sampled before every pass across the whole run, and like the engine
  // set-up its 10th percentile is kept.
  constexpr int kSetupRepeats = 8;
  std::vector<double> setup_samples;
  const auto timed_setup = [&] {
    SweepGrids g;
    for (int r = 0; r < kSetupRepeats; ++r) {
      const auto s0 = Clock::now();
      g = sweep_setup(text, tr, checks);
      setup_samples.push_back(seconds_between(s0, Clock::now()));
    }
    return g;
  };

  // The per-point calls must add up to the full grid: one full-grid
  // run_sweep at `workers` gives the reference report every pass
  // matches, and the wall time parallel_efficiency divides by.
  const auto f0 = Clock::now();
  const std::string digest = fnv1a_hex(sweep::to_json(sweep::run_sweep(
      sweep_setup(text, tr, checks).spec, {.threads = workers})));
  const double full_grid_s = seconds_between(f0, Clock::now());

  // One worker pinned to a vCPU that hops away from slow modes: with
  // every vCPU busy, a pass could not dodge a slow one (see README.md).
  CpuHopper hopper(false);

  const auto run_passes = [&](double budget_s, std::vector<SweepPass>& passes) {
    const auto start = Clock::now();
    double last_pass_s = 0.0;
    for (int p = 0;; ++p) {
      if (p >= 2 &&
          seconds_between(start, Clock::now()) + last_pass_s > budget_s) {
        break;
      }
      tr.next_run();
      auto root = tr.span("sweep_pass", Layer::kBench);
      SweepPass pass;
      const auto p0 = Clock::now();
      const SweepGrids g = timed_setup();
      last = run_point_grids(g, tr, hopper, pass.point_s);
      for (const double t : pass.point_s) pass.run_s += t;
      const auto j0 = Clock::now();
      std::string json;
      {
        auto s = tr.span("to_json", Layer::kAnalysis);
        json = sweep::to_json(*last);
      }
      pass.report_s = seconds_between(j0, Clock::now());
      pass.shards = last->shards;
      const std::string d = fnv1a_hex(json);
      checks.expect(d == digest, "sweep_mixed: report digest " + d +
                                     " differs from the full grid's " +
                                     digest);
      checks.expect(last->failed_shards == 0,
                    "sweep_mixed: " + std::to_string(last->failed_shards) +
                        " failed shards");
      out.attempted += last->shards;
      out.failed += last->failed_shards;
      passes.push_back(std::move(pass));
      last_pass_s = seconds_between(p0, Clock::now());
    }
  };

  std::vector<SweepPass> plain;
  run_passes(args.trace ? args.seconds * 0.35 : args.seconds, plain);
  std::vector<SweepPass> traced;
  MetricSet& m = out.metrics;
  if (args.trace) {
    tr.set_enabled(true);
    run_passes(args.seconds * 0.35, traced);
  }

  const sweep::SweepResult& res = *last;
  std::vector<double> run_s, report_ms;
  for (const SweepPass& p : plain) {
    run_s.push_back(p.run_s);
    report_ms.push_back(p.report_s * 1e3);
  }
  const auto passes = static_cast<std::int64_t>(plain.size());
  std::int64_t sampled = 0;
  const double shards_per_s = best_of_passes_rate(plain, sampled);
  m.set("shards_per_s", shards_per_s, sampled);
  m.set("slots_per_s", shards_per_s * static_cast<double>(res.spec.slots),
        sampled);
  m.set("setup_s", quantile(setup_samples, 0.1),
        static_cast<std::int64_t>(setup_samples.size()));
  // Simulated aggregates over the report's points (means of per-shard
  // values).  The report carries no per-message or per-connection
  // maxima: rt_latency_max_us is the worst shard's mean latency and
  // rt_latency_conn_max_us the mean over points of each point's worst
  // repetition.
  double lat = 0.0, lat_max = 0.0, admitted = 0.0, goodput = 0.0;
  double planned = 0.0, builds = 0.0, divergences = 0.0, misses = 0.0;
  std::int64_t delivered = 0;
  for (const sweep::PointResult& pr : res.points) {
    lat += pr.mean(sweep::Metric::kMeanLatencyUs);
    lat_max = std::max(lat_max, pr.stat(sweep::Metric::kMeanLatencyUs).max());
    admitted += pr.mean(sweep::Metric::kAdmittedFraction) *
                pr.point.utilisation * pr.mean(sweep::Metric::kUMax);
    goodput += pr.mean(sweep::Metric::kGoodputBps);
    planned += pr.mean(sweep::Metric::kPlannedSlotFraction);
    builds += pr.stat(sweep::Metric::kPlanBuilds).sum();
    divergences += pr.stat(sweep::Metric::kPlanDivergences).sum();
    misses += pr.stat(sweep::Metric::kUserMisses).sum();
    delivered += static_cast<std::int64_t>(
        pr.stat(sweep::Metric::kRtDelivered).sum());
  }
  const double npoints = static_cast<double>(res.points.size());
  m.set("peak_rss_mb", peak_rss_mb(), 1);
  m.set("rt_latency_mean_us", lat / npoints, res.shards);
  m.set("rt_latency_max_us", lat_max, res.shards);
  m.set("admitted_u", admitted / npoints, res.shards);
  m.set("goodput_mbps", goodput / npoints / 1e6, res.shards);
  m.set("rt_user_miss_ratio", ratio(misses, static_cast<double>(delivered)),
        delivered);
  m.set("failed_shard_ratio", ratio(res.failed_shards, res.shards),
        res.shards);
  m.set("sweep.report_ms", median(report_ms), passes);
  m.set("net.planned_slot_fraction", planned / npoints, res.shards);
  m.set("net.plan_builds", builds, res.shards);
  m.set("net.plan_divergences", divergences, res.shards);

  // Fault-free rt-only cells (every node count, load and planner
  // setting) replayed slot for slot through Network, for the engine
  // counters and per-connection worst latencies the report lacks.
  CleanCellCounters cc;
  for (const sweep::GridPoint& p : res.spec.expand()) {
    if (p.churn == 0.0 && p.link_cuts == 0 &&
        p.service == sweep::ServiceMix::kRtOnly) {
      for (int rep = 0; rep < kCleanCellReps; ++rep) {
        replay_clean_cell(res.spec, p, rep, tr, cc);
      }
    }
  }
  const auto cells = static_cast<std::int64_t>(cc.construct_us.size());
  m.set("sim.events_per_slot", ratio(cc.events, cc.slots), cc.slots);
  m.set("core.open_ms_total", median(cc.open_ms), cells);
  m.set("core.control_requests_per_slot", ratio(cc.requests, cc.slots),
        cc.slots);
  m.set("core.grants_per_busy_slot", ratio(cc.grants, cc.busy), cc.busy);
  m.set("net.chunk_ns_per_slot_p50", quantile(cc.ns_per_slot, 0.5), cells);
  m.set("net.chunk_ns_per_slot_p99", quantile(cc.ns_per_slot, 0.99), cells);
  m.set("net.ff_ratio", ratio(cc.ff, cc.slots), cc.slots);
  m.set("net.ff_slots_per_window", ratio(cc.ff, cc.ff_windows),
        cc.ff_windows);
  m.set("net.plan_wait_slots", static_cast<double>(cc.plan_wait), cc.slots);
  m.set("net.busy_slot_fraction", ratio(cc.busy, cc.slots), cc.slots);
  m.set("net.wasted_grants", static_cast<double>(cc.wasted), cells);
  m.set("net.construct_us", median(cc.construct_us), cells);
  m.set("workload.gen_us", median(cc.gen_us), cells);
  m.set("sweep.shard_setup_us", median(cc.setup_us), cells);
  m.set("rt_latency_conn_max_us",
        ratio(cc.conn_max_us_sum, static_cast<double>(cc.conns)), cc.conns);

  if (args.trace) {
    // Serial replay of shards in a fixed scattered order, within budget:
    // per-shard host time and the parallel efficiency of the pool.
    const std::vector<sweep::GridPoint> points = res.spec.expand();
    const auto reps = static_cast<std::size_t>(res.spec.repetitions);
    const auto shards = static_cast<std::size_t>(res.shards);
    std::vector<double> shard_ms;
    const auto r0 = Clock::now();
    for (std::size_t i = 0; i < shards; ++i) {
      if (i >= 8 && seconds_between(r0, Clock::now()) > args.seconds * 0.15) {
        break;
      }
      const std::size_t s = (i * 7919) % shards;
      const auto t0 = Clock::now();
      {
        auto span = tr.span("run_shard", Layer::kSweep);
        const sweep::ShardMetrics sm = sweep::run_shard(
            res.spec, points[s / reps], static_cast<int>(s % reps));
        checks.expect(sm.ok, "sweep_mixed: serial shard replay failed");
      }
      shard_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
    }
    double serial_ms = 0.0;
    for (const double v : shard_ms) serial_ms += v;
    const double est_serial_s = serial_ms / 1e3 /
                                static_cast<double>(shard_ms.size()) *
                                static_cast<double>(shards);
    const auto replayed = static_cast<std::int64_t>(shard_ms.size());
    m.set("sweep.shard_ms_p50", quantile(shard_ms, 0.5), replayed);
    m.set("sweep.shard_ms_p99", quantile(shard_ms, 0.99), replayed);
    m.set("sweep.parallel_efficiency",
          ratio(est_serial_s, static_cast<double>(workers) * full_grid_s),
          replayed);
    tr.set_enabled(false);

    std::int64_t traced_sampled = 0;
    const double traced_rate = best_of_passes_rate(traced, traced_sampled);
    set_self_times(tr, m);
    m.set("trace.overhead_ratio", ratio(shards_per_s, traced_rate) - 1.0,
          traced_sampled);
  }
  out.digest = digest;
  out.sample_counts["passes"] = passes;
  out.sample_counts["sampled_passes"] = sampled;
  out.sample_counts["shards_per_pass"] = res.shards;
  out.sample_counts["reference_workers"] = workers;
  out.sample_counts["cpu_hops"] = hopper.hops();
  out.sample_counts["setup_samples"] =
      static_cast<std::int64_t>(setup_samples.size());
  out.sample_counts["traced_passes"] = static_cast<std::int64_t>(traced.size());
  return out;
}

// ---- command line and output ----------------------------------------------

bool parse_args(int argc, char** argv, Args& a, std::string& error) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) {
      error = "missing value for " + k;
      return false;
    }
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
    } else if (k == "--trace") {
      a.trace = v == "1";
      if (v != "0" && v != "1") error = "--trace takes 0 or 1";
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else if (k == "--load") {
      a.load = std::strtod(v.c_str(), &end);
    } else {
      error = "unknown option " + k;
    }
    if (end != nullptr && *end != '\0') error = "bad number for " + k;
    if (!error.empty()) return false;
  }
  if (!(a.seconds > 0.0 && a.seconds <= 600.0)) {
    error = "--seconds must be in (0, 600]";
  } else if (a.load < 0.0 || a.load > 8.0) {
    error = "--load must be in [0, 8]";
  } else if (a.workload.empty()) {
    error = "--workload is required";
  }
  return error.empty();
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Build flags that make host timings incomparable with release runs.
bool instrumented_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    !defined(NDEBUG)
  return true;
#else
  return PERFBENCH_INSTRUMENTED != 0;
#endif
}

void print_env(const Args& args, const Outcome& out) {
  std::ostringstream os;
  os << "{\"env\": {\"workload\": \"" << args.workload
     << "\", \"seed\": " << args.seed << ", \"seconds\": " << args.seconds
     << ", \"trace\": " << (args.trace ? 1 : 0)
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"workers\": 1"
     << ", \"compiler\": \"" << PERFBENCH_COMPILER
     << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
     << "\", \"host_times_comparable\": "
     << (instrumented_build() ? "false" : "true") << ", \"samples\": {";
  bool first = true;
  for (const auto& [k, v] : out.sample_counts) {
    os << (first ? "" : ", ") << '"' << k << "\": " << v;
    first = false;
  }
  os << "}}}";
  std::cout << os.str() << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!parse_args(argc, argv, args, error)) {
    std::cerr << "perfbench: " << error << "\n";
    return 2;
  }
  std::map<std::string, EngineSpec> engines;
  // Period 64 on faults16 doubles its stream count, so per-connection
  // worst cases average over ~30 connections.
  engines["busy_tcma32"] =
      EngineSpec{32, false, false, 0.9, 32, 1'000'000, 10'000, 96};
  engines["busy_planner32"] =
      EngineSpec{32, true, false, 0.9, 32, 1'000'000, 10'000, 192};
  engines["faults16"] = EngineSpec{16, true, true, 0.6, 64, 200'000, 1'000, 24};
  const bool is_sweep = args.workload == "sweep_mixed";
  if (!is_sweep && engines.find(args.workload) == engines.end()) {
    std::cerr << "perfbench: unknown workload '" << args.workload
              << "' (busy_tcma32, busy_planner32, faults16, sweep_mixed)\n";
    return 2;
  }

  Tracer tracer;
  Checks checks;
  Outcome out;
  try {
    if (is_sweep) {
      out = run_sweep_workload(args, tracer, checks);
    } else {
      EngineSpec es = engines[args.workload];
      if (args.load > 0.0) es.load = args.load;
      out = run_engine(args.workload, es, args, tracer, checks);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << args.workload << " threw: " << e.what()
              << "\n";
    return 1;
  }

  std::cout << "perfbench " << args.workload << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << args.trace << "\n";
  print_env(args, out);
  if (instrumented_build()) {
    std::cout << "WARNING: instrumented or unoptimised build; host times "
                 "are not comparable\n";
  }
  // A metric a workload never sets is a layer it does not reach (or a
  // traced-run figure in an untraced run): it reads 0 with 0 samples.
  const auto value_of = [&](const MetricDef& d) {
    const MetricValue* v = out.metrics.find(d.name);
    return v != nullptr ? *v : MetricValue{};
  };
  std::vector<MetricDef> emitted;
  for (const MetricDef& d : kEndToEnd) emitted.push_back(d);
  for (const MetricDef& d : kPerLayer) emitted.push_back(d);
  for (const MetricDef& d : emitted) {
    const MetricValue v = value_of(d);
    checks.expect(std::isfinite(v.value),
                  std::string("non-finite metric ") + d.name);
    std::printf("metric %-34s %22.10g %-7s samples=%" PRId64 "\n", d.name,
                v.value, d.unit, v.samples);
  }
  std::cout << "digest " << out.digest << "\n";
  if (args.trace) {
    const std::string path = args.trace_out.empty()
                                 ? "perfbench-spans-" + args.workload +
                                       ".jsonl"
                                 : args.trace_out;
    checks.expect(tracer.write_jsonl(path), "cannot write spans to " + path);
    std::cout << "spans " << tracer.spans().size() << " -> " << path << "\n";
  }
  for (const std::string& f : checks.failures()) {
    std::cout << "CHECK FAILED: " << f << "\n";
  }

  std::ostringstream js;
  js << "{\"correct\": " << (checks.ok() ? "true" : "false")
     << ", \"attempted\": " << std::max<std::int64_t>(out.attempted, 1)
     << ", \"failed\": " << out.failed << ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const MetricDef& d) {
    const double v = value_of(d).value;
    js << (first ? "" : ", ") << '"' << d.name << "\": {\"value\": "
       << json_number(std::isfinite(v) ? v : 0.0) << ", \"unit\": \""
       << d.unit << "\"}";
    first = false;
  };
  if (args.trace) {
    for (const MetricDef& d : kPerLayer) emit(d);
  } else {
    for (const MetricDef& d : kEndToEnd) emit(d);
  }
  js << "}}";
  std::cout << js.str() << std::endl;
  return checks.ok() ? 0 : 1;
}
