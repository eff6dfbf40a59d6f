// Shared helpers for the experiment harness (bench_* binaries).
//
// Each binary reproduces one experiment from DESIGN.md §6 and prints the
// paper-style table/series through analysis::Table; EXPERIMENTS.md records
// prediction vs measurement.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/report.hpp"
#include "baseline/ccfpr.hpp"
#include "baseline/tdma.hpp"
#include "net/network.hpp"
#include "sweep/grid.hpp"
#include "sweep/report.hpp"
#include "sweep/runner.hpp"
#include "workload/periodic.hpp"
#include "workload/poisson.hpp"

namespace ccredf::bench {

// The protocol axis lives in the sweep module now (shared by the grid
// runner, the CLI and the benches).
using Protocol = sweep::Protocol;
using sweep::protocol_name;

inline net::NetworkConfig make_config(NodeId nodes, Protocol proto,
                                      double link_length_m = 10.0,
                                      std::int64_t payload = 0) {
  sweep::GridSpec spec;
  spec.link_length_m = link_length_m;
  spec.slot_payload_bytes = payload;
  sweep::GridPoint point;
  point.protocol = proto;
  point.nodes = nodes;
  net::NetworkConfig cfg = sweep::make_network_config(spec, point);
  // Benches drain inboxes in places; keep the library default.
  cfg.record_inboxes = true;
  return cfg;
}

/// Opens every connection of a periodic set; returns how many admitted.
inline int open_all(net::Network& n,
                    const std::vector<core::ConnectionParams>& set) {
  int admitted = 0;
  for (const auto& c : set) {
    if (n.open_connection(c).admitted) ++admitted;
  }
  return admitted;
}

// ---- fault-sweep scaffolding (bench_fault_recovery, E19) ---------------

/// One cell of a fault-rate sweep: the injected rate and the fragment
/// naming it in JSON keys.
struct BerCase {
  double ber;
  const char* label;
};

/// The canonical fault-experiment workload: tight deadlines (a few
/// slots), so one recovery stall or retransmission round trip overruns
/// them and faults translate directly into misses.
inline workload::PeriodicSetParams fault_workload(const net::Network& n,
                                                  double load = 0.5) {
  workload::PeriodicSetParams wp;
  wp.nodes = n.nodes();
  wp.connections = 12;
  wp.total_utilisation = load * n.timing().u_max();
  wp.min_period_slots = 8;
  wp.max_period_slots = 40;
  wp.seed = 3;
  return wp;
}

/// Result digest used by several experiments.
struct RunDigest {
  std::int64_t rt_delivered = 0;
  double rt_sched_miss = 0.0;
  double rt_user_miss = 0.0;
  std::int64_t inversions = 0;
  double mean_latency_us = 0.0;
  double slot_fraction = 0.0;
  double goodput_bps = 0.0;
  double grants_per_busy_slot = 0.0;
};

inline RunDigest digest(const net::Network& n) {
  RunDigest d;
  const auto& rt = n.stats().cls(core::TrafficClass::kRealTime);
  d.rt_delivered = rt.delivered;
  d.rt_sched_miss = rt.scheduling_miss_ratio();
  d.rt_user_miss = rt.user_miss_ratio();
  d.inversions = n.stats().priority_inversions;
  d.mean_latency_us = rt.latency.mean() / 1e6;
  d.slot_fraction = n.stats().slot_time_fraction();
  d.goodput_bps = n.stats().goodput_bps();
  d.grants_per_busy_slot = n.stats().mean_grants_per_busy_slot();
  return d;
}

inline void header(const std::string& id, const std::string& title,
                   const std::string& paper_ref) {
  std::cout << "\n######## " << id << ": " << title << "\n"
            << "# paper artefact: " << paper_ref << "\n\n";
}

// ---- the bench harness ------------------------------------------------
//
// Every experiment binary runs through one Harness: it parses the shared
// flags, owns the `{"bench": <name>, "metrics": {...}}` document that
// `--json <path>` writes, and holds each acceptance gate exactly once --
// in the bench that measures it.  A gate's verdict lands in the document
// as `gate:<id>` (1 held, 0 failed) and in the exit code, so
// scripts/validate_bench_json.py needs no per-bench knowledge.

/// Flat metric document; insertion order is preserved in the output.
class JsonDoc {
 public:
  explicit JsonDoc(std::string bench_name) : name_(std::move(bench_name)) {}

  void set(const std::string& key, double value) {
    metrics_.emplace_back(key, value);
  }

  [[nodiscard]] std::string str() const {
    std::ostringstream os;
    os.precision(12);
    os << "{\"bench\": \"" << name_ << "\", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      if (i != 0) os << ", ";
      os << '"' << metrics_[i].first << "\": ";
      // JSON has no NaN/inf literals.
      if (std::isfinite(metrics_[i].second)) {
        os << metrics_[i].second;
      } else {
        os << "null";
      }
    }
    os << "}}\n";
    return os.str();
  }

  bool write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << str();
    return static_cast<bool>(out);
  }

 private:
  std::string name_;
  std::vector<std::pair<std::string, double>> metrics_;
};

class Harness {
 public:
  /// Parses `--quick`, `--no-fast-forward` and `--json <path>`; any
  /// other argument prints the usage line and exits 2.
  Harness(std::string bench_name, int argc, char** argv)
      : name_(std::move(bench_name)), doc_(name_) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--quick") {
        quick_ = true;
      } else if (arg == "--no-fast-forward") {
        fast_forward_ = false;
      } else if (arg == "--json" && i + 1 < argc) {
        json_path_ = argv[++i];
      } else {
        std::cerr << "usage: " << argv[0]
                  << " [--quick] [--no-fast-forward] [--json <path>]\n";
        std::exit(2);
      }
    }
  }

  /// For a binary with its own flag parser (google-benchmark): consumes
  /// only `--json <path>` and leaves every other argument in argv.
  static Harness with_foreign_flags(std::string bench_name, int& argc,
                                    char** argv) {
    std::string path;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
      if (std::string(argv[i]) == "--json" && i + 1 < argc) {
        path = argv[++i];
        continue;
      }
      argv[out++] = argv[i];
    }
    argc = out;
    Harness h(std::move(bench_name), 1, argv);
    h.json_path_ = std::move(path);
    return h;
  }

  [[nodiscard]] bool quick() const { return quick_; }
  [[nodiscard]] bool fast_forward() const { return fast_forward_; }
  [[nodiscard]] bool json_requested() const { return !json_path_.empty(); }
  JsonDoc& doc() { return doc_; }
  void set(const std::string& key, double value) { doc_.set(key, value); }

  /// Declares one acceptance check of gate `id`.  A failed check prints
  /// "<id> FAIL: <message...>" on stderr; the gate holds only if every
  /// check declared under its id held.
  template <typename... Parts>
  void gate(const std::string& id, bool held, const Parts&... message) {
    auto it = gates_.begin();
    while (it != gates_.end() && it->first != id) ++it;
    if (it == gates_.end()) {
      gates_.emplace_back(id, held);
    } else {
      it->second = it->second && held;
    }
    if (!held) {
      std::cerr << id << " FAIL: ";
      (std::cerr << ... << message);
      std::cerr << "\n";
    }
  }

  /// The sweep determinism gates: runs `spec` at 1 and 8 worker threads
  /// (and, with `with_fast_forward_leg`, at 1 thread slot by slot),
  /// compares the sweep::to_json reports byte for byte, prints one
  /// "<id>: <what> ..." line ending in `extra` (a bench's own checks on
  /// the same grid), records threads_json_identical /
  /// ff_json_identical and declares both under gate `id`.
  void sweep_determinism(const std::string& id, const std::string& what,
                         const sweep::GridSpec& spec,
                         bool with_fast_forward_leg,
                         const std::string& extra = "") {
    const std::string json_1t =
        sweep::to_json(sweep::run_sweep(spec, {.threads = 1}));
    const bool threads_identical =
        json_1t == sweep::to_json(sweep::run_sweep(spec, {.threads = 8}));
    const auto verdict = [](bool same) {
      return same ? "byte-identical" : "MISMATCH";
    };
    std::cout << id << ": " << what << " 1-thread vs 8-thread JSON: "
              << verdict(threads_identical);
    bool ff_identical = true;
    if (with_fast_forward_leg) {
      sweep::GridSpec slot_by_slot = spec;
      slot_by_slot.fast_forward = false;
      ff_identical = json_1t == sweep::to_json(sweep::run_sweep(
                                    slot_by_slot, {.threads = 1}));
      std::cout << "; fast-forward vs slot-by-slot JSON: "
                << verdict(ff_identical);
    }
    std::cout << extra << "\n";
    set("threads_json_identical", threads_identical ? 1.0 : 0.0);
    gate(id, threads_identical, what, " output depends on thread count");
    if (with_fast_forward_leg) {
      set("ff_json_identical", ff_identical ? 1.0 : 0.0);
      gate(id, ff_identical, what,
           " output depends on the fast-forward engine");
    }
  }

  /// Records hardware_threads and one `gate:<id>` metric per gate,
  /// writes the document when `--json` was given (announcing the path
  /// on stdout when `announce`), and returns the exit code: 1 if a gate
  /// failed or the write failed, else 0.
  int finish(bool announce = false) {
    doc_.set("hardware_threads",
             static_cast<double>(std::thread::hardware_concurrency()));
    bool ok = true;
    for (const auto& [id, held] : gates_) {
      doc_.set("gate:" + id, held ? 1.0 : 0.0);
      ok = ok && held;
    }
    if (!json_path_.empty()) {
      if (!doc_.write(json_path_)) {
        std::cerr << "bench_" << name_ << ": cannot write " << json_path_
                  << "\n";
        return 1;
      }
      if (announce) std::cout << "\nwrote " << json_path_ << "\n";
    }
    return ok ? 0 : 1;
  }

 private:
  std::string name_;
  JsonDoc doc_;
  std::string json_path_;
  bool quick_ = false;
  bool fast_forward_ = true;
  std::vector<std::pair<std::string, bool>> gates_;  // declaration order
};

}  // namespace ccredf::bench
