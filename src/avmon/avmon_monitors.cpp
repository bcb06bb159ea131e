#include "avmon/avmon_monitors.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <utility>

#include "hash/fast64_batch.hpp"
#include "net/network.hpp"

namespace avmem::avmon {

AvmonSystem::AvmonSystem(const trace::AvailabilityModel& trace,
                         sim::Simulator& sim,
                         const std::vector<core::NodeId>& ids,
                         const AvmonConfig& config)
    : trace_(trace),
      sim_(sim),
      ids_(ids),
      hasher_(config.hashAlgorithm, config.hashSeed),
      hashSeed_(config.hashSeed),
      threshold_(config.expectedMonitorsPerTarget /
                 static_cast<double>(trace.hostCount())) {
  if (ids_.size() != trace_.hostCount()) {
    throw std::invalid_argument("AvmonSystem: ids/trace size mismatch");
  }
  const double k = config.expectedMonitorsPerTarget;
  if (!std::isfinite(k) || k <= 0.0 ||
      k >= static_cast<double>(trace_.hostCount())) {
    throw std::invalid_argument(
        "AvmonSystem: expectedMonitorsPerTarget must be finite and in "
        "(0, hostCount) — k/N >= 1 would make everyone monitor everyone");
  }
  const std::size_t n = ids_.size();
  cells_.resize(n);
  ready_ = std::make_unique<std::atomic<std::uint8_t>[]>(n);
  for (std::size_t i = 0; i < n; ++i) {
    ready_[i].store(0, std::memory_order_relaxed);
  }
  if (config.hashAlgorithm == hashing::PairHashAlgorithm::kFast64) {
    idTails_.reserve(n);
    for (const core::NodeId& id : ids_) {
      idTails_.push_back(hashing::fast64Tail6(id.ip, id.port));
    }
  }
}

std::optional<sim::SimTime> AvmonSystem::nextFold(
    std::uint64_t advanced) const {
  const std::size_t epochs = trace_.epochCount();
  // Foldable epochs are [0, epochs-2]: the clamped "current epoch" of the
  // legacy lazy advance never exceeds epochs-1, so neither does our
  // cursor. Nothing to arm once it is reached.
  if (epochs < 2 || advanced + 1 >= epochs) return std::nullopt;
  return trace_.epochStart(advanced + 1);
}

void AvmonSystem::start() {
  const std::optional<sim::SimTime> at =
      nextFold(advancedEpochs_.load(std::memory_order_relaxed));
  if (!at) return;
  epochTask_.start(sim_, *at, trace_.epochDuration(),
                   [this] { advanceEpochBoundary(); });
}

void AvmonSystem::advanceEpochBoundary() {
  const std::size_t epochs = trace_.epochCount();
  const std::uint64_t e = advancedEpochs_.load(std::memory_order_relaxed);
  if (e + 1 >= epochs) {
    epochTask_.stop();
    return;
  }
  foldEpoch(e);
  advancedEpochs_.store(e + 1, std::memory_order_release);
  if (e + 2 >= epochs) epochTask_.stop();  // last foldable epoch done
}

void AvmonSystem::foldEpoch(std::uint64_t e) {
  // Gather the materialized targets, ascending — the commit (and its
  // wire billing) must run in an order independent of when and on which
  // thread each cell was materialized.
  foldTargets_.clear();
  const std::size_t n = ids_.size();
  for (NodeIndex t = 0; t < n; ++t) {
    if (ready_[t].load(std::memory_order_acquire) != 0) {
      foldTargets_.push_back(t);
    }
  }
  if (foldTargets_.empty()) return;

  const std::size_t count = foldTargets_.size();
  foldOffsets_.resize(count + 1);
  foldOffsets_[0] = 0;
  for (std::size_t i = 0; i < count; ++i) {
    foldOffsets_[i + 1] =
        foldOffsets_[i] + cells_[foldTargets_[i]]->monitors.size();
  }
  foldMonitorUp_.resize(foldOffsets_[count]);
  foldTargetUp_.resize(count);

  // Plan (read-only, disjoint output slices): who was online in epoch e.
  // The task sees the system only as const; its two output spans are the
  // only thing it can write.
  const auto planOne = [&self = std::as_const(*this), e,
                        targetUp = std::span<std::uint8_t>(foldTargetUp_),
                        monitorUp = std::span<std::uint8_t>(foldMonitorUp_)](
                           std::size_t i) {
    const NodeIndex t = self.foldTargets_[i];
    const TargetCell& cell = *self.cells_[t];
    targetUp[i] = self.trace_.onlineInEpoch(t, e) ? 1 : 0;
    const std::size_t off = self.foldOffsets_[i];
    for (std::size_t j = 0; j < cell.monitors.size(); ++j) {
      monitorUp[off + j] =
          self.trace_.onlineInEpoch(cell.monitors[j], e) ? 1 : 0;
    }
  };
  if (pool_ != nullptr) {
    pool_->run(count, planOne);
  } else {
    for (std::size_t i = 0; i < count; ++i) planOne(i);
  }

  // Commit (serial, ascending targets): counters + wire billing. Pings of
  // epoch e are billed at the boundary instant ending it.
  const std::int64_t nowUs = sim_.now().toMicros();
  for (std::size_t i = 0; i < count; ++i) {
    const NodeIndex t = foldTargets_[i];
    TargetCell& cell = *cells_[t];
    const bool targetUp = foldTargetUp_[i] != 0;
    const std::size_t off = foldOffsets_[i];
    for (std::size_t j = 0; j < cell.monitors.size(); ++j) {
      if (foldMonitorUp_[off + j] == 0) continue;  // offline monitor: no ping
      if (!billPing(cell.monitors[j], t, targetUp, nowUs)) continue;
      ++cell.samples[j];
      if (targetUp) ++cell.up[j];
    }
  }
}

bool AvmonSystem::billPing(NodeIndex m, NodeIndex target, bool targetUp,
                           std::int64_t nowUs) {
  ++pings_.sent;
  pings_.bytes += kPingBytes;
  if (wire_ != nullptr) {
    net::NetworkStats& stats = wire_->stats_;
    ++stats.sent;
    stats.bytesSent += kPingBytes;
    if (wire_->fault_ != nullptr) {
      const fault::WireVerdict v = wire_->fault_->onWire(
          fault::WireKind::kPing, m, target, nowUs);
      if (v.drop) {
        ++stats.injectedDrops;
        ++pings_.lostToFaults;
        return false;  // the monitor never hears back: sample lost
      }
      if (v.duplicate) {
        // The second copy is delivery accounting only — the receiver
        // answers (or not) once per epoch either way.
        ++stats.duplicated;
        if (targetUp) {
          ++stats.delivered;
        } else {
          ++stats.droppedOffline;
        }
      }
      // v.extraDelayUs: a late ping still lands inside the same epoch at
      // this granularity — no observable effect.
    }
    if (targetUp) {
      ++stats.delivered;
      ++stats.acksSent;  // the pong
      stats.bytesSent += net::Network::kAckBytes;
    } else {
      ++stats.droppedOffline;
    }
  }
  if (targetUp) {
    ++pings_.delivered;
    pings_.bytes += net::Network::kAckBytes;
  }
  return true;
}

void AvmonSystem::scanMonitors(NodeIndex target,
                               std::vector<NodeIndex>& out) const {
  const auto n = static_cast<NodeIndex>(ids_.size());
  if (!idTails_.empty()) {
    // Batched kernel, target fixed as the right operand; bit-identical to
    // the scalar hasher (tests/hash/fast64_batch_test.cpp).
    const hashing::Fast64TargetBatch batch(hashSeed_, idTails_[target]);
    std::array<double, 256> buf;
    for (NodeIndex base = 0; base < n; base += 256) {
      const std::size_t chunk = std::min<std::size_t>(256, n - base);
      batch.hashMany({idTails_.data() + base, chunk}, {buf.data(), chunk});
      for (std::size_t i = 0; i < chunk; ++i) {
        const NodeIndex m = base + static_cast<NodeIndex>(i);
        if (m != target && buf[i] <= threshold_) out.push_back(m);
      }
    }
    return;
  }
  for (NodeIndex m = 0; m < n; ++m) {
    if (m == target) continue;
    if (hasher_(ids_[m].bytes(), ids_[target].bytes()) <= threshold_) {
      out.push_back(m);
    }
  }
}

const AvmonSystem::TargetCell& AvmonSystem::ensureCell(
    NodeIndex target) const {
  if (target >= ids_.size()) {
    throw std::out_of_range("AvmonSystem: target index out of range");
  }
  std::atomic<std::uint8_t>& flag = ready_[target];
  if (flag.load(std::memory_order_acquire) != 0) return *cells_[target];

  std::lock_guard<std::mutex> lock(stripes_[target % kStripes]);
  if (flag.load(std::memory_order_acquire) != 0) return *cells_[target];

  auto cell = std::make_unique<TargetCell>();
  scanMonitors(target, cell->monitors);
  const std::size_t k = cell->monitors.size();
  cell->samples.assign(k, 0);
  cell->up.assign(k, 0);
  // Catch up on the already-folded epochs: a pure trace function, so the
  // counters are exactly what eager materialization would have produced.
  // Unbilled and injector-free by design (see the header note).
  const std::uint64_t upto = advancedEpochs_.load(std::memory_order_acquire);
  for (std::size_t j = 0; j < k; ++j) {
    const NodeIndex m = cell->monitors[j];
    std::uint32_t samples = 0;
    std::uint32_t up = 0;
    for (std::uint64_t e = 0; e < upto; ++e) {
      if (!trace_.onlineInEpoch(m, e)) continue;
      ++samples;
      if (trace_.onlineInEpoch(target, e)) ++up;
    }
    cell->samples[j] = samples;
    cell->up[j] = up;
  }
  cells_[target] = std::move(cell);
  flag.store(1, std::memory_order_release);
  return *cells_[target];
}

bool AvmonSystem::isMonitor(NodeIndex m, NodeIndex target) const {
  if (m == target) return false;
  return hasher_(ids_.at(m).bytes(), ids_.at(target).bytes()) <= threshold_;
}

AvmonSystem::EstimateCell AvmonSystem::monitorCounters(
    NodeIndex m, NodeIndex target) const {
  if (m >= ids_.size()) {
    throw std::out_of_range("AvmonSystem: monitor index out of range");
  }
  const TargetCell& cell = ensureCell(target);
  const std::uint64_t advanced =
      advancedEpochs_.load(std::memory_order_acquire);
  EstimateCell out;
  out.nextEpoch = static_cast<std::size_t>(advanced);
  const auto it =
      std::lower_bound(cell.monitors.begin(), cell.monitors.end(), m);
  if (it != cell.monitors.end() && *it == m) {
    const auto j =
        static_cast<std::size_t>(it - cell.monitors.begin());
    out.samples = cell.samples[j];
    out.up = cell.up[j];
    return out;
  }
  // Not one of target's monitors — the legacy map answered any pair, so
  // derive the pure sampling counters on the fly (cold path: tests and
  // diagnostics only).
  for (std::uint64_t e = 0; e < advanced; ++e) {
    if (!trace_.onlineInEpoch(m, e)) continue;
    ++out.samples;
    if (trace_.onlineInEpoch(target, e)) ++out.up;
  }
  return out;
}

std::optional<double> AvmonSystem::monitorEstimate(NodeIndex m,
                                                   NodeIndex target) const {
  const EstimateCell cell = monitorCounters(m, target);
  if (cell.samples == 0) return std::nullopt;
  return static_cast<double>(cell.up) / static_cast<double>(cell.samples);
}

void AvmonSystem::restoreStage(Cells& cells) const {
  for (std::size_t t = 0; t < cells.size(); ++t) {
    TargetCell* cell = cells[t].get();
    if (cell == nullptr) continue;
    scanMonitors(static_cast<NodeIndex>(t), cell->monitors);
    if (cell->samples.size() != cell->monitors.size() ||
        cell->up.size() != cell->monitors.size()) {
      throw std::invalid_argument(
          "AvmonSystem restore: monitor count mismatch (checkpoint was "
          "taken under a different monitor relation)");
    }
  }
}

void AvmonSystem::restoreInstall(std::uint64_t advancedEpochs,
                                 const PingStats& pings,
                                 Cells cells) noexcept {
  advancedEpochs_.store(advancedEpochs, std::memory_order_release);
  pings_ = pings;
  cells_ = std::move(cells);
  for (std::size_t t = 0; t < cells_.size(); ++t) {
    if (cells_[t] != nullptr) ready_[t].store(1, std::memory_order_release);
  }
}

std::optional<double> AvmonAvailabilityService::query(
    NodeIndex querier, NodeIndex target) const {
  const AvmonSystem::TargetCell& cell = system_.ensureCell(target);
  if (cell.monitors.empty()) return std::nullopt;
  // One epoch lookup per query: onlineAt(m, now) is
  // onlineInEpoch(m, epochAt(now)) for every monitor m.
  const trace::AvailabilityModel& trace = system_.trace_;
  const std::size_t epoch = trace.epochAt(system_.sim_.now());
  double up = 0.0;
  double samples = 0.0;
  for (std::size_t j = 0; j < cell.monitors.size(); ++j) {
    const NodeIndex m = cell.monitors[j];
    if (m != querier && !trace.onlineInEpoch(m, epoch)) continue;
    if (cell.samples[j] == 0) continue;
    up += cell.up[j];
    samples += cell.samples[j];
  }
  if (samples == 0.0) return std::nullopt;
  return up / samples;
}

}  // namespace avmem::avmon
