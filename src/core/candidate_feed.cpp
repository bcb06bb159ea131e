#include "core/candidate_feed.hpp"

#include <algorithm>
#include <cmath>

namespace avmem::core {

using net::NodeIndex;

CandidateFeed::CandidateFeed(const CandidateFeedConfig& config,
                             std::size_t nodeCount,
                             const ProtocolContext& ctx, std::uint64_t seed)
    : config_(config), ctx_(&ctx), seed_(seed) {
  config_.buckets = std::max<std::size_t>(config_.buckets, 1);
  frozen_.buckets.resize(config_.buckets);
  building_.buckets.resize(config_.buckets);
  publishedInEpoch_.assign(nodeCount, 0);
}

void CandidateFeed::start(sim::Simulator& sim, sim::SimDuration period) {
  // First seal one period in: the first building epoch collects one full
  // round of commits before anything becomes readable.
  sealTask_.start(sim, sim.now() + period, period, [this] { sealEpoch(); });
}

std::size_t CandidateFeed::bucketOf(double av) const noexcept {
  const double clamped = std::clamp(av, 0.0, 1.0);
  const auto b = static_cast<std::size_t>(
      clamped * static_cast<double>(config_.buckets));
  return std::min(b, config_.buckets - 1);
}

double CandidateFeed::bucketMid(std::size_t b) const noexcept {
  return (static_cast<double>(b) + 0.5) / static_cast<double>(config_.buckets);
}

double CandidateFeed::bucketThreshold(const AvmemPredicate::Row& owner,
                                      std::size_t b) const noexcept {
  return std::min(1.0, kThresholdSlack * owner.f(bucketMid(b)));
}

void CandidateFeed::publish(NodeIndex node, double av) {
  // Tag of the epoch currently being built. uint32 wrap would take
  // 2^32 seals (millennia of simulated minutes); not a practical concern.
  const auto tag = static_cast<std::uint32_t>(sealedEpochs_ + 1);
  if (publishedInEpoch_[node] == tag) return;
  publishedInEpoch_[node] = tag;
  building_.buckets[bucketOf(av)].push_back(node);
  ++building_.population;
}

void CandidateFeed::sealEpoch() {
  std::swap(frozen_, building_);
  building_.clear();
  ++sealedEpochs_;
}

void CandidateFeed::drawCandidates(NodeIndex self, double selfAv,
                                   std::uint64_t round,
                                   std::vector<NodeIndex>& out) const {
  if (frozen_.population == 0) return;
  sim::Rng rng = sim::Rng::stream(seed_, self, round);
  // Every threshold and weight below is f(selfAv, ·): bind it once.
  const auto owner = ctx_->predicate.at(selfAv);

  std::size_t emitted = 0;
  // Emit `y` unless it is self, already in `out` (coarse view included),
  // or the round cap is reached; returns false once the cap is hit.
  const auto emit = [&](NodeIndex y) {
    if (emitted >= config_.maxCandidates) return false;
    if (y != self &&
        std::find(out.begin(), out.end(), y) == out.end()) {
      out.push_back(y);
      ++emitted;
    }
    return emitted < config_.maxCandidates;
  };

  const double eps = ctx_->predicate.epsilon();
  const std::size_t bandLo = bucketOf(selfAv - eps);
  const std::size_t bandHi = bucketOf(selfAv + eps);

  // Batched hash pre-filter: a scan visits a contiguous run of one
  // bucket's entries under one threshold, so the run is hashed in one
  // batch (ProtocolContext::hashMany), the branch-free admission mask
  // compares them all at once, and the per-entry emit pass runs only
  // when something was admitted (rare — thresholds are the predicate's
  // own admission rate). Hashes are pure, so entries a one-by-one scan
  // would not have reached (past an emission-cap break) being hashed
  // anyway changes nothing; the emitted sequence is the same. The
  // scratch is thread-local for the same reason as `weight` below.
  thread_local std::vector<std::uint64_t> words;
  thread_local std::vector<double> hashes;
  thread_local std::vector<std::uint8_t> mask;
  // Scan `len` entries from `data` under `threshold`; false = cap hit.
  const auto scanRun = [&](const NodeIndex* data, std::size_t len,
                           double threshold) -> bool {
    hashes.resize(len);
    mask.resize(len);
    ctx_->hashMany(self, {data, len}, words, hashes);
    if (admissionMask({hashes.data(), len}, threshold, mask) == 0) {
      return true;
    }
    for (std::size_t i = 0; i < len; ++i) {
      if (mask[i] != 0 && !emit(data[i])) return false;
    }
    return true;
  };

  // --- horizontal: wrapping scan across the ±eps band ----------------------
  std::size_t bandTotal = 0;
  for (std::size_t b = bandLo; b <= bandHi; ++b) {
    bandTotal += frozen_.buckets[b].size();
  }
  if (bandTotal > 0 && config_.horizontalScanBudget > 0) {
    const std::size_t budget =
        std::min(config_.horizontalScanBudget, bandTotal);
    std::size_t pos = rng.below(bandTotal);  // offset in the band's
                                             // concatenated entry space
    // Locate (bucket, index) for the starting offset.
    std::size_t bucket = bandLo;
    while (pos >= frozen_.buckets[bucket].size()) {
      pos -= frozen_.buckets[bucket].size();
      bucket = bucket == bandHi ? bandLo : bucket + 1;
    }
    double threshold = bucketThreshold(owner, bucket);
    std::size_t scanned = 0;
    while (scanned < budget) {
      // The contiguous run from pos to the bucket end (or budget end),
      // all under this bucket's threshold.
      const auto& entries = frozen_.buckets[bucket];
      const std::size_t run =
          std::min(entries.size() - pos, budget - scanned);
      if (!scanRun(entries.data() + pos, run, threshold)) break;
      scanned += run;
      pos += run;
      if (scanned >= budget) break;
      while (pos >= frozen_.buckets[bucket].size()) {
        pos = 0;
        bucket = bucket == bandHi ? bandLo : bucket + 1;
        threshold = bucketThreshold(owner, bucket);
      }
    }
  }

  // --- vertical: f-weighted buckets outside the band ------------------------
  // Bucket b is drawn with probability ∝ f(selfAv, mid_b) · |b|, the
  // expected admissions it holds; a contiguous chunk is then hash-scanned
  // from a random offset so repeated rounds spread coverage. The weight
  // scratch is thread-local: draws run on every worker each round, and a
  // per-call allocation here would contend the allocator across the pool
  // (each call fully rewrites the values it reads, so reuse is safe).
  thread_local std::vector<double> weight;
  weight.assign(config_.buckets, 0.0);
  double weightTotal = 0.0;
  for (std::size_t b = 0; b < config_.buckets; ++b) {
    if (b >= bandLo && b <= bandHi) continue;
    if (frozen_.buckets[b].empty()) continue;
    const double w =
        owner.f(bucketMid(b)) * static_cast<double>(frozen_.buckets[b].size());
    weight[b] = w;
    weightTotal += w;
  }
  if (weightTotal > 0.0 && config_.verticalScanBudget > 0) {
    constexpr std::size_t kChunk = 32;
    std::size_t budget = config_.verticalScanBudget;
    bool capped = false;
    while (budget > 0 && !capped) {
      double x = rng.uniform() * weightTotal;
      std::size_t bucket = 0;
      for (std::size_t b = 0; b < config_.buckets; ++b) {
        if (weight[b] <= 0.0) continue;
        bucket = b;
        if (x < weight[b]) break;
        x -= weight[b];
      }
      const auto& entries = frozen_.buckets[bucket];
      const std::size_t take = std::min({kChunk, budget, entries.size()});
      std::size_t pos = rng.below(entries.size());
      const double threshold = bucketThreshold(owner, bucket);
      for (std::size_t i = 0; i < take; ++i) {
        const NodeIndex y = entries[pos];
        if (ctx_->hashOf(self, y) <= threshold && !emit(y)) {
          capped = true;
          break;
        }
        pos = pos + 1 == entries.size() ? 0 : pos + 1;
      }
      budget -= take;
    }
  }
}

}  // namespace avmem::core
