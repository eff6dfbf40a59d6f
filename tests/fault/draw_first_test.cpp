// Draw-first control-frame corruption against an engine-free reference.
//
// FaultInjector::filter_request / filter_distribution count the keyed
// bit flips before building a frame's wire image and encode only the
// frames the draw hits.  The reference below is the encode-everything
// path written out in full: encode, BitErrorModel::corrupt at the
// loop-computed path probability, checked decode, classify.  For random
// frames at several BERs both must give the same outcome, the same
// mutated frame and the same number of flipped bits.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>

#include "fault/injector.hpp"
#include "net/network.hpp"
#include "phy/bit_error.hpp"
#include "sim/rng.hpp"

namespace ccredf::fault {
namespace {

using RequestFault = net::FaultHook::RequestFault;
using DistributionFault = net::FaultHook::DistributionFault;

constexpr std::uint64_t kInjectorSeed = 23;
// The injector keys its BER models on this derivation of its seed, and
// each frame on its channel: the distribution packet, or the collection
// record of node j at kChanCollection + j.
constexpr std::uint64_t kFaultStreamTag = 0xFA;
constexpr std::uint64_t kChanDistribution = 1;
constexpr std::uint64_t kChanCollection = 0x200;
constexpr int kTrials = 10'000;

std::uint64_t low_bits(NodeId n) {
  return n >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
}

/// 1 - prod(1 - ber) over `hops` uniform links, one factor at a time.
double loop_path_probability(double ber, NodeId hops) {
  double survive = 1.0;
  for (NodeId i = 0; i < hops; ++i) survive *= 1.0 - ber;
  return 1.0 - survive;
}

core::Request random_request(sim::Rng& rng, const core::FrameCodec& codec,
                             NodeId n) {
  core::Request rq;
  rq.priority = static_cast<core::Priority>(
      rng.uniform_int(0, codec.layout().max_level()));
  if (rq.wants_slot()) {
    rq.links = LinkSet::from_mask(rng.next_u64() & low_bits(n));
    rq.dests = NodeSet::from_mask(rng.next_u64() & low_bits(n));
  }
  return rq;
}

core::DistributionPacket random_packet(sim::Rng& rng, NodeId n, bool acks,
                                       bool nacks) {
  core::DistributionPacket p;
  p.granted = NodeSet::from_mask(rng.next_u64() & low_bits(n));
  p.hp_node = static_cast<NodeId>(rng.uniform_u64(n));
  p.has_acks = acks;
  if (acks) p.acks = NodeSet::from_mask(rng.next_u64() & low_bits(n));
  p.has_nacks = nacks;
  if (nacks) p.nacks = NodeSet::from_mask(rng.next_u64() & low_bits(n));
  return p;
}

struct Case {
  double ber;
  bool crc;
};

void PrintTo(const Case& c, std::ostream* os) {
  *os << "ber=" << c.ber << (c.crc ? " crc" : " no-crc");
}

class DrawFirst : public ::testing::TestWithParam<Case> {};

net::NetworkConfig config(bool crc) {
  net::NetworkConfig cfg;
  cfg.nodes = 16;
  cfg.with_frame_crc = crc;
  cfg.with_payload_crc = crc;
  cfg.with_acks = true;
  return cfg;
}

TEST_P(DrawFirst, FilterRequestMatchesEncodeEverythingReference) {
  const Case c = GetParam();
  net::Network n(config(c.crc));
  FaultInjector inj(n, kInjectorSeed);
  inj.set_control_ber(c.ber);
  const phy::BitErrorModel ref(
      n.nodes(), c.ber,
      sim::Rng::stream_seed(kInjectorSeed, kFaultStreamTag, 0));
  const core::FrameCodec& codec = n.codec();
  const NodeId nodes = n.nodes();
  sim::Rng rng(c.crc ? 101 : 102);
  int hits = 0;
  for (int t = 0; t < kTrials; ++t) {
    const auto slot = static_cast<SlotIndex>(rng.uniform_u64(1'000'000));
    const auto hop = static_cast<NodeId>(rng.uniform_u64(nodes));
    const auto node = static_cast<NodeId>(rng.uniform_u64(nodes));
    const core::Request original = random_request(rng, codec, nodes);

    // Reference: encode, corrupt, checked decode, classify.
    const NodeId hops = hop == 0 ? nodes : nodes - hop;
    const double p = loop_path_probability(c.ber, hops);
    core::FrameCodec::Encoded enc = codec.encode_request(original);
    const int flips = ref.corrupt(slot, kChanCollection + node, p,
                                  enc.bytes.data(), enc.bit_count);
    RequestFault want = RequestFault::kNone;
    core::Request want_rq = original;
    if (flips > 0) {
      const auto checked = codec.decode_request_checked(enc, node);
      if (!checked.ok) {
        want = RequestFault::kDetected;
      } else if (!(checked.request == original)) {
        want = RequestFault::kSilent;
        want_rq = checked.request;
      }
      ++hits;
    }

    core::Request rq = original;
    const std::int64_t before = inj.bits_flipped();
    const RequestFault got = inj.filter_request(slot, hop, node, rq);
    ASSERT_EQ(got, want) << "trial " << t;
    ASSERT_EQ(rq, want_rq) << "trial " << t;
    ASSERT_EQ(inj.bits_flipped() - before, flips) << "trial " << t;
  }
  EXPECT_GT(hits, 0);
}

TEST_P(DrawFirst, FilterDistributionMatchesEncodeEverythingReference) {
  const Case c = GetParam();
  const net::NetworkConfig cfg = config(c.crc);
  net::Network n(cfg);
  FaultInjector inj(n, kInjectorSeed);
  inj.set_control_ber(c.ber);
  const phy::BitErrorModel ref(
      n.nodes(), c.ber,
      sim::Rng::stream_seed(kInjectorSeed, kFaultStreamTag, 0));
  const core::FrameCodec& codec = n.codec();
  const NodeId nodes = n.nodes();
  const double p = loop_path_probability(c.ber, nodes - 1);
  sim::Rng rng(c.crc ? 201 : 202);
  int hits = 0;
  for (int t = 0; t < kTrials; ++t) {
    const auto slot = static_cast<SlotIndex>(rng.uniform_u64(1'000'000));
    const core::DistributionPacket original = random_packet(
        rng, nodes, cfg.with_acks, cfg.with_acks && cfg.with_payload_crc);

    core::FrameCodec::Encoded enc = codec.encode(original);
    const int flips =
        ref.corrupt(slot, kChanDistribution, p, enc.bytes.data(),
                    enc.bit_count);
    DistributionFault want = DistributionFault::kNone;
    core::DistributionPacket want_p = original;
    if (flips > 0) {
      const auto checked = codec.decode_distribution_checked(enc);
      if (!checked.ok) {
        want = DistributionFault::kDetected;
      } else if (checked.packet.hp_node != original.hp_node) {
        want = DistributionFault::kSilentMaster;
      } else if (!(checked.packet == original)) {
        want = DistributionFault::kGrantView;
        want_p = checked.packet;
      }
      ++hits;
    }

    core::DistributionPacket pkt = original;
    const std::int64_t before = inj.bits_flipped();
    const DistributionFault got = inj.filter_distribution(slot, pkt);
    ASSERT_EQ(got, want) << "trial " << t;
    ASSERT_EQ(pkt, want_p) << "trial " << t;
    ASSERT_EQ(inj.bits_flipped() - before, flips) << "trial " << t;
  }
  EXPECT_GT(hits, 0);
}

INSTANTIATE_TEST_SUITE_P(
    BerAndCrc, DrawFirst,
    ::testing::Values(Case{1e-3, true}, Case{1e-3, false}, Case{1e-2, true},
                      Case{1e-2, false}, Case{0.1, true}, Case{0.1, false}),
    [](const ::testing::TestParamInfo<Case>& tp) {
      const char* ber = tp.param.ber == 1e-3   ? "1e3"
                        : tp.param.ber == 1e-2 ? "1e2"
                                               : "1e1";
      return std::string("Ber") + ber + (tp.param.crc ? "Crc" : "NoCrc");
    });

// Draw-first counts flips over codec.request_bits() / distribution_bits()
// instead of the encoded frame's length: the two must agree for every
// ring size and field set.
TEST(DrawFirstLengths, EncodedLengthsMatchDeclaredFrameBits) {
  for (NodeId nodes = 2; nodes <= kMaxNodes; ++nodes) {
    for (const bool crc : {false, true}) {
      for (const bool acks : {false, true}) {
        for (const bool nacks : {false, true}) {
          if (nacks && !acks) continue;
          const core::FrameCodec codec(nodes, core::PriorityLayout{}, acks,
                                       crc, nacks);
          sim::Rng rng(nodes * 8u + (crc ? 4u : 0u) + (acks ? 2u : 0u) +
                       (nacks ? 1u : 0u));
          for (int t = 0; t < 16; ++t) {
            const core::Request rq = random_request(rng, codec, nodes);
            ASSERT_EQ(codec.encode_request(rq).bit_count,
                      static_cast<std::size_t>(codec.request_bits()))
                << "nodes=" << nodes << " crc=" << crc;
            const core::DistributionPacket p =
                random_packet(rng, nodes, acks, nacks);
            ASSERT_EQ(codec.encode(p).bit_count,
                      static_cast<std::size_t>(codec.distribution_bits()))
                << "nodes=" << nodes << " crc=" << crc << " acks=" << acks
                << " nacks=" << nacks;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace ccredf::fault
