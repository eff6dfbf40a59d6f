#include "phy/bit_error.hpp"

#include <cmath>

#include "common/error.hpp"

namespace ccredf::phy {

namespace {
void validate_ber(double ber) {
  CCREDF_EXPECT(ber >= 0.0 && ber < 1.0,
                "BitErrorModel: BER must be in [0, 1)");
}
}  // namespace

BitErrorModel::BitErrorModel(NodeId nodes, double ber,
                             std::uint64_t stream_seed)
    : key_(stream_seed) {
  CCREDF_EXPECT(nodes >= 2 && nodes <= kMaxNodes,
                "BitErrorModel: node count out of range");
  validate_ber(ber);
  link_ber_.assign(nodes, ber);
  enabled_ = ber > 0.0;
  build_path_table();
}

BitErrorModel::BitErrorModel(std::vector<double> link_ber,
                             std::uint64_t stream_seed)
    : link_ber_(std::move(link_ber)), key_(stream_seed) {
  CCREDF_EXPECT(link_ber_.size() >= 2 && link_ber_.size() <= kMaxNodes,
                "BitErrorModel: link count out of range");
  for (const double b : link_ber_) {
    validate_ber(b);
    if (b > 0.0) enabled_ = true;
  }
  build_path_table();
}

double BitErrorModel::link_ber(LinkId link) const {
  CCREDF_EXPECT(link < link_ber_.size(),
                "BitErrorModel: link index out of range");
  return link_ber_[link];
}

void BitErrorModel::build_path_table() {
  // Prefix products: the survival product of hops h extends that of
  // h - 1 by one factor, multiplied in the same link order as a loop
  // from `first`, so each entry is bit-identical to the loop's result.
  const NodeId n = nodes();
  path_.clear();
  path_.reserve(static_cast<std::size_t>(n) * (n + 1u));
  for (NodeId first = 0; first < n; ++first) {
    double survive = 1.0;
    path_.emplace_back(1.0 - survive);
    for (NodeId h = 1; h <= n; ++h) {
      survive *= 1.0 - link_ber_[(first + h - 1) % n];
      path_.emplace_back(1.0 - survive);
    }
  }
}

int BitErrorModel::sample_flips(SlotIndex slot, std::uint64_t channel,
                                const Exposure& e, std::uint8_t* bytes,
                                std::size_t nbits) const {
  CCREDF_EXPECT(e.p < 1.0, "BitErrorModel: corruption probability >= 1");
  // Geometric skip sampling: instead of one Bernoulli draw per bit, draw
  // the gap to the next flipped bit directly -- O(flips), not O(bits),
  // so BER 1e-9 on a 100-bit frame costs one draw, not 100.  Most frames
  // are clean, and screened_clean decided those from the stream's first
  // uniform alone, without a logarithm or the full generator; here the
  // full stream replays that draw and continues.
  sim::Rng rng = key_.stream(static_cast<std::uint64_t>(slot), channel);
  double u = rng.uniform01();
  int flips = 0;
  std::size_t pos = 0;
  while (true) {
    // skip = floor(log(1-u)/log(1-p)) is geometric with support {0,...}.
    const double skip = std::floor(std::log1p(-u) / e.log1mp);
    // Guard the double->index conversion: a huge skip means "no more
    // flips in this frame" long before the cast could overflow.
    if (!(skip < static_cast<double>(nbits - pos))) break;
    pos += static_cast<std::size_t>(skip);
    if (bytes != nullptr) {
      bytes[pos / 8] ^= static_cast<std::uint8_t>(0x80u >> (pos % 8));
    }
    ++flips;
    ++pos;
    if (pos >= nbits) break;
    u = rng.uniform01();
  }
  return flips;
}

}  // namespace ccredf::phy
