// Distributed-multimedia LAN: video + audio streams as guaranteed
// connections, bursty best-effort file transfer over the reliable
// channel with credit flow control underneath (paper §1 services).
//
//   $ ./examples/multimedia_lan
#include <iostream>
#include <vector>

#include "analysis/report.hpp"
#include "fault/injector.hpp"
#include "net/network.hpp"
#include "services/reliable.hpp"
#include "workload/multimedia.hpp"
#include "workload/poisson.hpp"

using namespace ccredf;

int main() {
  workload::MultimediaParams mm;
  mm.nodes = 8;
  mm.video_streams = 3;
  mm.audio_streams = 4;
  const auto scenario = workload::make_multimedia_scenario(mm);

  net::NetworkConfig cfg;
  cfg.nodes = mm.nodes;
  // Receivers check a payload CRC-32 and NACK corrupt transfers on the
  // ack wire; the reliable channel retransmits on the NACK.
  cfg.with_acks = true;
  cfg.with_payload_crc = true;
  net::Network network(cfg);
  // A noisy data fibre into node 6 (link 5 runs from node 5 to node 6).
  fault::FaultInjector faults(network, /*seed=*/6);
  std::vector<double> data_ber(mm.nodes, 0.0);
  data_ber[5] = 5e-7;
  faults.set_data_ber(data_ber);

  int admitted = 0;
  for (const auto& c : scenario.connections) {
    if (network.open_connection(c).admitted) ++admitted;
  }
  std::cout << "Multimedia LAN on " << network.nodes() << " nodes: "
            << admitted << "/" << scenario.connections.size()
            << " streams admitted (u=" << scenario.total_utilisation
            << ", U_max=" << network.timing().u_max() << ")\n";

  // Background best-effort (web/file) traffic.
  workload::PoissonGenerator background(
      network, scenario.background,
      sim::TimePoint::origin() + network.timing().slot() * 8000);

  // A 256 KiB reliable file transfer to the node behind the noisy fibre.
  services::ReliableChannel reliable(network,
                                     services::ReliableChannel::Params{});
  const std::int64_t file_slots =
      (256 * 1024) / network.timing().payload_bytes() + 1;
  bool file_done = false;
  services::ReliableChannel::TransferResult file_result;
  reliable.send(1, 6, file_slots, sim::Duration::milliseconds(100),
                [&](const services::ReliableChannel::TransferResult& r) {
                  file_done = true;
                  file_result = r;
                });

  network.run_slots(10'000);

  analysis::Table t("Traffic summary after 10k slots");
  t.columns({"class", "delivered", "mean lat (us)", "p-misses"});
  const auto row = [&](const char* name, core::TrafficClass c) {
    const auto& s = network.stats().cls(c);
    t.row()
        .cell(name)
        .cell(s.delivered)
        .cell(s.latency.mean() / 1e6, 2)
        .cell(s.user_misses);
  };
  row("RT (video+audio)", core::TrafficClass::kRealTime);
  row("best effort", core::TrafficClass::kBestEffort);
  t.print(std::cout);

  std::cout << "\nreliable 256 KiB transfer: "
            << (file_done && file_result.delivered ? "delivered" : "FAILED")
            << " after " << file_result.attempts << " attempt(s), "
            << reliable.retransmissions() << " retransmissions\n"
            << "background messages generated: " << background.generated()
            << "\n";
  return 0;
}
