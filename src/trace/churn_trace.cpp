#include "trace/churn_trace.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace avmem::trace {

ChurnTrace::ChurnTrace(std::vector<std::vector<std::uint8_t>> timeline,
                       sim::SimDuration epochDuration)
    : hosts_(timeline.size()), epochDuration_(epochDuration) {
  if (timeline.empty()) {
    throw std::invalid_argument("ChurnTrace: no hosts");
  }
  if (epochDuration <= sim::SimDuration::zero()) {
    throw std::invalid_argument("ChurnTrace: non-positive epoch duration");
  }
  epochs_ = timeline.front().size();
  if (epochs_ == 0) {
    throw std::invalid_argument("ChurnTrace: no epochs");
  }
  wordsPerHost_ = (epochs_ + kEpochsPerWord - 1) / kEpochsPerWord;
  bits_.assign(hosts_ * wordsPerHost_, 0);
  blockCount_.assign(hosts_ * wordsPerHost_, 0);
  for (HostIndex h = 0; h < hosts_; ++h) {
    const std::vector<std::uint8_t>& row = timeline[h];
    if (row.size() != epochs_) {
      throw std::invalid_argument("ChurnTrace: ragged timeline");
    }
    const std::size_t base = h * wordsPerHost_;
    std::uint32_t running = 0;
    for (std::size_t w = 0; w < wordsPerHost_; ++w) {
      blockCount_[base + w] = running;
      std::uint64_t word = 0;
      const std::size_t lo = w * kEpochsPerWord;
      const std::size_t hi = std::min(lo + kEpochsPerWord, epochs_);
      for (std::size_t e = lo; e < hi; ++e) {
        if (row[e] != 0) word |= std::uint64_t{1} << (e - lo);
      }
      bits_[base + w] = word;
      running += static_cast<std::uint32_t>(std::popcount(word));
    }
  }
}

void ChurnTrace::checkRange(HostIndex h, std::size_t e) const {
  if (h >= hosts_) {
    throw std::out_of_range("ChurnTrace: host out of range");
  }
  if (e >= epochs_) {
    throw std::out_of_range("ChurnTrace: epoch out of range");
  }
}

bool ChurnTrace::onlineInEpoch(HostIndex h, std::size_t e) const {
  checkRange(h, e);
  const std::uint64_t word = bits_[h * wordsPerHost_ + e / kEpochsPerWord];
  return ((word >> (e % kEpochsPerWord)) & 1u) != 0;
}

std::uint64_t ChurnTrace::onlineEpochsThrough(HostIndex h,
                                              std::size_t e) const {
  checkRange(h, e);
  const std::size_t w = e / kEpochsPerWord;
  const std::size_t bit = e % kEpochsPerWord;
  // Mask keeps bits [0, bit] of the epoch's word: a full prefix when the
  // epoch is the word's last bit, a partial popcount otherwise.
  const std::uint64_t mask =
      bit == kEpochsPerWord - 1 ? ~std::uint64_t{0}
                                : (std::uint64_t{1} << (bit + 1)) - 1;
  const std::size_t base = h * wordsPerHost_;
  return blockCount_[base + w] +
         static_cast<std::uint64_t>(std::popcount(bits_[base + w] & mask));
}

std::size_t ChurnTrace::onlineCountInEpoch(std::size_t e) const {
  if (e >= epochs_) {
    throw std::out_of_range("ChurnTrace: epoch out of range");
  }
  const std::size_t w = e / kEpochsPerWord;
  const std::uint64_t probe = std::uint64_t{1} << (e % kEpochsPerWord);
  std::size_t n = 0;
  for (std::size_t h = 0; h < hosts_; ++h) {
    if ((bits_[h * wordsPerHost_ + w] & probe) != 0) ++n;
  }
  return n;
}

std::size_t ChurnTrace::memoryFootprintBytes() const noexcept {
  return sizeof(*this) + bits_.capacity() * sizeof(std::uint64_t) +
         blockCount_.capacity() * sizeof(std::uint32_t);
}

}  // namespace avmem::trace
