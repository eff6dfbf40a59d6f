// Per-link bit-error-rate model for the ribbon's serial channels.
//
// Fibre-ribbon links fail bit-wise: a flipped priority or reservation
// bit silently misarbitrates a slot, a flipped payload bit silently
// corrupts the application's data -- neither kills the packet.  This
// model draws the bit flips a frame suffers while traversing a set of
// links, with every draw keyed on (slot, channel) coordinates via
// Rng::stream_seed -- no generator state is carried between calls (the
// sim::StreamKey memo is a cache of the derivation, not state), so fault
// streams are independent of workload streams and byte-identical across
// sweep thread counts (the same determinism contract as the sweep runner
// itself).  The memo makes the model single-threaded: each sweep shard
// builds its own.  One instance models the control fibre; a
// second, independently seeded instance models the data fibres (the
// injector keeps the two on disjoint channel namespaces).
//
// The model is deliberately ignorant of frame layout: it flips bits in
// a raw MSB-first packed buffer.  Layout knowledge (which field a flip
// landed in, whether guards catch it) lives in core/frames.* and the
// fault injector.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "sim/rng.hpp"

namespace ccredf::phy {

class BitErrorModel {
 public:
  /// Uniform BER on every one of the ring's `nodes` links.
  BitErrorModel(NodeId nodes, double ber, std::uint64_t stream_seed);
  /// Per-link BER; link l connects node l to its downstream neighbour.
  BitErrorModel(std::vector<double> link_ber, std::uint64_t stream_seed);

  [[nodiscard]] NodeId nodes() const {
    return static_cast<NodeId>(link_ber_.size());
  }
  [[nodiscard]] double link_ber(LinkId link) const;
  /// True when at least one link has a non-zero error rate.
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// A frame's per-bit error probability `p` together with log(1 - p),
  /// the rate the flip sampler draws its geometric gaps with.  Built
  /// from a bare `p` it takes the logarithm; path_exposure() returns a
  /// tabled pair, so the fault path never does.
  struct Exposure {
    // Implicit on purpose: every sampler call may pass a bare `p`.
    Exposure(double p_in) : p(p_in), log1mp(std::log1p(-p_in)) {}
    double p;
    double log1mp;
  };

  /// Exposure of a bit on the path starting at link `first` and spanning
  /// `hops` consecutive links: p = 1 - prod(1 - ber_l).  (An even number
  /// of flips of the SAME bit re-corrupting it back is negligible at
  /// realistic BERs and ignored.)  A lookup: every (first, hops) pair is
  /// tabled at construction, the product taken link by link from `first`,
  /// so the fault path pays no per-frame loop or logarithm.
  [[nodiscard]] const Exposure& path_exposure(LinkId first,
                                              NodeId hops) const {
    const NodeId n = nodes();
    CCREDF_EXPECT(hops <= n, "BitErrorModel: path longer than ring");
    return path_[static_cast<std::size_t>(first % n) * (n + 1u) + hops];
  }

  /// Flips each of the `nbits` MSB-first packed bits in `bytes`
  /// independently with probability `e.p`; returns the number of flips.
  /// All randomness is keyed on (slot, channel): two calls with the
  /// same coordinates flip the same bits, calls with different
  /// coordinates are statistically independent.  `channel` namespaces
  /// the frame (collection record of node j, distribution packet, ...).
  int corrupt(SlotIndex slot, std::uint64_t channel, const Exposure& e,
              std::uint8_t* bytes, std::size_t nbits) const {
    return screened_clean(slot, channel, e, nbits)
               ? 0
               : sample_flips(slot, channel, e, bytes, nbits);
  }

  /// Counts the flips an `nbits`-bit frame would suffer at probability
  /// `e.p`, without materialising any buffer.  Keyed identically to
  /// corrupt(): the same (slot, channel, p, nbits) always yields the
  /// same count -- so a caller may count first and build the frame only
  /// when it is hit.
  [[nodiscard]] int count_flips(SlotIndex slot, std::uint64_t channel,
                                const Exposure& e, std::size_t nbits) const {
    return screened_clean(slot, channel, e, nbits)
               ? 0
               : sample_flips(slot, channel, e, nullptr, nbits);
  }

  /// The sampler's first-draw screen.  Its exact rule: uniform `u`
  /// starts the frame with a gap of floor(log1p(-u) / log1mp) clean
  /// bits, so the frame is clean when that gap is >= nbits.  Since
  /// log1p(-u) <= -u, every u >= nbits * -log1mp proves the frame clean
  /// without the logarithm; the threshold sits a relative kScreenBand
  /// above that bound, far wider than the few ulps of rounding in
  /// log1p, the division and this product, so a screened draw is one
  /// the exact rule also calls clean, and every other draw takes the
  /// exact rule.
  static constexpr double kScreenBand = 1e-9;
  [[nodiscard]] static double clean_frame_threshold(double log1mp,
                                                    std::size_t nbits) {
    return static_cast<double>(nbits) * -log1mp * (1.0 + kScreenBand);
  }

 private:
  /// True when the frame is certainly clean: nothing to flip, or the
  /// stream's first uniform clears the screen.  Inline, so a clean frame
  /// costs the caller two finalisers and a compare.
  [[nodiscard]] bool screened_clean(SlotIndex slot, std::uint64_t channel,
                                    const Exposure& e,
                                    std::size_t nbits) const {
    return e.p <= 0.0 || nbits == 0 ||
           key_.uniform01(static_cast<std::uint64_t>(slot), channel) >=
               clean_frame_threshold(e.log1mp, nbits);
  }
  /// The sampler behind a failed screen: builds the full stream, which
  /// replays the screened first draw, and walks the geometric gaps.
  int sample_flips(SlotIndex slot, std::uint64_t channel, const Exposure& e,
                   std::uint8_t* bytes, std::size_t nbits) const;

  void build_path_table();

  std::vector<double> link_ber_;
  /// path_[first * (N + 1) + hops] = path_exposure(first, hops).
  std::vector<Exposure> path_;
  /// Derives the keyed streams; mutable because its slot memo changes
  /// on every const draw without changing any draw's value.
  mutable sim::StreamKey key_;
  bool enabled_ = false;
};

}  // namespace ccredf::phy
