// Recorded churn traces: the timeline backend of AvailabilityModel.
//
// The paper's evaluation injects availability traces from the Overnet p2p
// system, "collected over a 7 day period, at 20 minute intervals, for a
// fixed population of 1442 hosts" (Bhagwan et al. [3]). ChurnTrace stores
// such a trace — real (loaded from disk, see trace_io.hpp) or synthetic
// (see overnet_generator.hpp) — bit-packed: each host's online flags fill
// 64-bit words, 64 epochs per word, beside one uint32 running count per
// word (block summary). An availability query adds the block count
// before the epoch's word to a popcount of that word masked up to the
// epoch: O(1), at ~0.19 bytes per host-epoch.
//
// This is one of two availability backends (see availability_model.hpp):
// ChurnTrace for recorded timelines, MarkovChurnModel when even a packed
// timeline is too large.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/time.hpp"
#include "trace/availability_model.hpp"

namespace avmem::trace {

/// An immutable, bit-packed churn trace.
class ChurnTrace final : public AvailabilityModel {
 public:
  /// Build from per-host epoch bitmaps; `timeline[h][e]` non-zero means
  /// host h is online in epoch e. All hosts must have the same number of
  /// epochs. The byte matrix is the input format only; it is packed here
  /// and not kept.
  ChurnTrace(std::vector<std::vector<std::uint8_t>> timeline,
             sim::SimDuration epochDuration);

  [[nodiscard]] std::size_t hostCount() const noexcept override {
    return hosts_;
  }
  [[nodiscard]] std::size_t epochCount() const noexcept override {
    return epochs_;
  }
  [[nodiscard]] sim::SimDuration epochDuration() const noexcept override {
    return epochDuration_;
  }

  [[nodiscard]] bool onlineInEpoch(HostIndex h, std::size_t e) const override;

  /// Online epochs of `h` in [0, e]: one block count plus one popcount.
  [[nodiscard]] std::uint64_t onlineEpochsThrough(
      HostIndex h, std::size_t e) const override;

  [[nodiscard]] std::size_t onlineCountInEpoch(std::size_t e) const override;

  [[nodiscard]] std::size_t memoryFootprintBytes() const noexcept override;

  /// Epochs per storage word / summary block.
  static constexpr std::size_t kEpochsPerWord = 64;

 private:
  void checkRange(HostIndex h, std::size_t e) const;

  std::size_t hosts_ = 0;
  std::size_t epochs_ = 0;
  std::size_t wordsPerHost_ = 0;
  /// Packed flags, host-major: word w of host h is bits_[h * wordsPerHost_
  /// + w]; epoch e lives in word e / 64, bit e % 64.
  std::vector<std::uint64_t> bits_;
  /// Exclusive block summaries: online epochs of host h in words [0, w),
  /// at blockCount_[h * wordsPerHost_ + w].
  std::vector<std::uint32_t> blockCount_;
  sim::SimDuration epochDuration_ = sim::SimDuration::zero();
};

}  // namespace avmem::trace
