// Golden fault stream: pins every keyed fault draw of a heavily armed
// 16-node run to exact counts.
//
// Control BER 1e-3 and data BER 2e-4 hit most request records and many
// payloads, so a change to the order, keying or gating of the injector's
// draws (the BER path, the babbler, token loss, cut/splice) moves at
// least one of these numbers.  The values were recorded before the fault
// path was reordered to draw the flip count before encoding a frame; the
// reordering is a pure speed-up and must leave every one of them as is.
// If an intentional semantic change lands, re-capture the numbers in the
// same commit and say why.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "fault/injector.hpp"
#include "net/network.hpp"
#include "workload/periodic.hpp"
#include "workload/poisson.hpp"

namespace ccredf::fault {
namespace {

using core::TrafficClass;
using Counts = std::vector<std::pair<std::string, std::int64_t>>;

Counts run_armed(bool with_crc) {
  net::NetworkConfig cfg;
  cfg.nodes = 16;
  cfg.record_inboxes = false;
  cfg.with_frame_crc = with_crc;
  cfg.with_payload_crc = with_crc;
  cfg.with_acks = true;
  net::Network n(cfg);
  FaultInjector inj(n, 11);
  inj.set_control_ber(1e-3);
  inj.set_data_ber(2e-4);
  inj.set_babbling_node(3, 0.01);
  inj.schedule_token_loss(5'000);
  const sim::Duration extent = n.timing().slot_plus_max_gap();
  inj.schedule_link_cut(9, sim::TimePoint::origin() + extent * 8'000);
  inj.schedule_link_splice(9, sim::TimePoint::origin() + extent * 12'000);

  workload::PeriodicSetParams wp;
  wp.nodes = 16;
  wp.connections = 16;
  wp.total_utilisation = 0.4 * n.timing().u_max();
  wp.seed = 5;
  for (const auto& c : workload::make_periodic_set(wp)) {
    (void)n.open_connection(c);
  }
  workload::PoissonParams pp;
  pp.rate_per_node = 0.01;
  pp.seed = 13;
  workload::PoissonGenerator gen(
      n, pp, sim::TimePoint::origin() + n.timing().slot() * 18'000);
  n.run_slots(20'000);

  const net::NetworkStats& st = n.stats();
  const net::FaultStats& f = st.faults;
  Counts c = {
      {"token_losses", f.token_losses},
      {"collection_drops", f.collection_drops},
      {"collection_corruptions", f.collection_corruptions},
      {"collection_detected", f.collection_detected},
      {"collection_silent", f.collection_silent},
      {"spurious_requests", f.spurious_requests},
      {"distribution_corruptions", f.distribution_corruptions},
      {"distribution_detected", f.distribution_detected},
      {"rearbitration_slots", f.rearbitration_slots},
      {"silent_misarbitrations", f.silent_misarbitrations},
      {"recoveries", f.recoveries},
      {"recovery_gap_count", f.recovery_gap.count()},
      {"recovery_gap_sum_ps",
       static_cast<std::int64_t>(f.recovery_gap.sum())},
      {"ring_dark", f.ring_dark},
      {"payload_corruptions", f.payload_corruptions},
      {"payload_detected", f.payload_detected},
      {"payload_undetected", f.payload_undetected},
      {"payload_nacks", f.payload_nacks},
      {"admission_renegotiations", f.admission_renegotiations},
      {"link_cuts", f.link_cuts},
      {"segment_quarantines", f.segment_quarantines},
      {"cut_detect_slots", f.cut_detect_slots},
      {"bits_flipped", inj.bits_flipped()},
      {"data_bits_flipped", inj.data_bits_flipped()},
      {"token_losses_injected", inj.token_losses_injected()},
  };
  std::int64_t dropped = 0, corrupted = 0, rejected = 0, spurious = 0,
               payloads = 0;
  for (const net::NodeFaultCounters& nf : st.per_node_faults) {
    dropped += nf.requests_dropped;
    corrupted += nf.requests_corrupted;
    rejected += nf.requests_rejected;
    spurious += nf.spurious_requests;
    payloads += nf.payloads_corrupted;
  }
  c.emplace_back("node_requests_dropped", dropped);
  c.emplace_back("node_requests_corrupted", corrupted);
  c.emplace_back("node_requests_rejected", rejected);
  c.emplace_back("node_spurious_requests", spurious);
  c.emplace_back("node_payloads_corrupted", payloads);
  const char* const names[] = {"rt", "be", "nrt"};
  const TrafficClass classes[] = {TrafficClass::kRealTime,
                                  TrafficClass::kBestEffort,
                                  TrafficClass::kNonRealTime};
  for (int k = 0; k < 3; ++k) {
    const net::ClassStats& cs = st.cls(classes[k]);
    const std::string p = names[k];
    c.emplace_back(p + "_delivered", cs.delivered);
    c.emplace_back(p + "_scheduling_misses", cs.scheduling_misses);
    c.emplace_back(p + "_user_misses", cs.user_misses);
    // Latencies are whole picoseconds and the sum stays far below 2^53,
    // so the double sum is an exact integer.
    c.emplace_back(p + "_latency_sum_ps",
                   static_cast<std::int64_t>(cs.latency.sum()));
  }
  c.emplace_back("total_grants", st.total_grants);
  c.emplace_back("busy_slots", st.busy_slots);
  return c;
}

void expect_counts(const Counts& got, const Counts& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first, want[i].first);
    EXPECT_EQ(got[i].second, want[i].second) << got[i].first;
  }
}

// With the guards on, nearly every corruption is detected: distribution
// packets fall back to token-loss recovery and payloads are NACKed.
TEST(FaultGolden, ArmedRunWithFrameAndPayloadCrc) {
  expect_counts(run_armed(true), Counts{
      {"token_losses", 1},
      {"collection_drops", 0},
      {"collection_corruptions", 96335},
      {"collection_detected", 96335},
      {"collection_silent", 0},
      {"spurious_requests", 17},
      {"distribution_corruptions", 12005},
      {"distribution_detected", 12003},
      {"rearbitration_slots", 1},
      {"silent_misarbitrations", 1},
      {"recoveries", 12004},
      {"recovery_gap_count", 12004},
      {"recovery_gap_sum_ps", 172377440000},
      {"ring_dark", 0},
      {"payload_corruptions", 4015},
      {"payload_detected", 4015},
      {"payload_undetected", 0},
      {"payload_nacks", 1577},
      {"admission_renegotiations", 0},
      {"link_cuts", 1},
      {"segment_quarantines", 0},
      {"cut_detect_slots", 2},
      {"bits_flipped", 139156},
      {"data_bits_flipped", 144661},
      {"token_losses_injected", 1},
      {"node_requests_dropped", 0},
      {"node_requests_corrupted", 96335},
      {"node_requests_rejected", 96335},
      {"node_spurious_requests", 17},
      {"node_payloads_corrupted", 4015},
      {"rt_delivered", 2},
      {"rt_scheduling_misses", 2},
      {"rt_user_misses", 2},
      {"rt_latency_sum_ps", 175089950000},
      {"be_delivered", 0},
      {"be_scheduling_misses", 0},
      {"be_user_misses", 0},
      {"be_latency_sum_ps", 0},
      {"nrt_delivered", 0},
      {"nrt_scheduling_misses", 0},
      {"nrt_user_misses", 0},
      {"nrt_latency_sum_ps", 0},
      {"total_grants", 12224},
      {"busy_slots", 7847},
  });
}

// Without them, mutated records reach arbitration and garbage payloads
// reach the applications.
TEST(FaultGolden, ArmedRunWithoutCrc) {
  expect_counts(run_armed(false), Counts{
      {"token_losses", 1},
      {"collection_drops", 0},
      {"collection_corruptions", 82884},
      {"collection_detected", 65286},
      {"collection_silent", 17598},
      {"spurious_requests", 111},
      {"distribution_corruptions", 8496},
      {"distribution_detected", 2226},
      {"rearbitration_slots", 1918},
      {"silent_misarbitrations", 2912},
      {"recoveries", 1482},
      {"recovery_gap_count", 1482},
      {"recovery_gap_sum_ps", 19028880000},
      {"ring_dark", 0},
      {"payload_corruptions", 6605},
      {"payload_detected", 0},
      {"payload_undetected", 6605},
      {"payload_nacks", 0},
      {"admission_renegotiations", 0},
      {"link_cuts", 1},
      {"segment_quarantines", 0},
      {"cut_detect_slots", 1},
      {"bits_flipped", 111022},
      {"data_bits_flipped", 182599},
      {"token_losses_injected", 1},
      {"node_requests_dropped", 0},
      {"node_requests_corrupted", 82884},
      {"node_requests_rejected", 65286},
      {"node_spurious_requests", 111},
      {"node_payloads_corrupted", 6605},
      {"rt_delivered", 4461},
      {"rt_scheduling_misses", 723},
      {"rt_user_misses", 704},
      {"rt_latency_sum_ps", 3450593900000},
      {"be_delivered", 2162},
      {"be_scheduling_misses", 1841},
      {"be_user_misses", 1826},
      {"be_latency_sum_ps", 27505999784580},
      {"nrt_delivered", 0},
      {"nrt_scheduling_misses", 0},
      {"nrt_user_misses", 0},
      {"nrt_latency_sum_ps", 0},
      {"total_grants", 16188},
      {"busy_slots", 13017},
  });
}

}  // namespace
}  // namespace ccredf::fault
