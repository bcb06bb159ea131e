// Fault plans: typed, data-driven schedules of hostile conditions.
//
// A plan is a list of *stages* — wire-loss windows, correlated regional
// outages, flash-crowd join waves, attacker campaigns — parsed from a
// small key=value campaign file (docs/SCENARIOS.md has the format
// reference). Plans are pure data: this layer knows nothing about the
// network, the trace, or the engines. The injector (fault_injector.hpp)
// turns a plan into deterministic per-message verdicts and an
// availability overlay; core/ wires attacker campaigns onto the
// simulator's timer machinery.
//
// Everything a plan contributes to a run is drawn from
// Rng::stream(plan.seed, kind, seq) counter streams, so chaos runs stay
// bit-identical at any thread count and across checkpoint/restore. The
// plan's fingerprint() feeds the checkpoint config fingerprint: a
// snapshot taken mid-campaign only restores into the same campaign.
#pragma once

#include <cstdint>
#include <istream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace avmem::fault {

/// Region index meaning "any region" in a loss-stage scope.
inline constexpr std::int32_t kAnyRegion = -1;

/// Wire degradation over a time window: every message whose
/// delivery-scheduling point falls inside [fromUs, toUs) — and whose
/// endpoints match the optional region scope — rolls independent
/// drop/duplicate/extra-delay dice. Every wire lane names both
/// endpoints, so a scope matches any message whose sender (or receiver)
/// lies in the region.
/// When several loss stages overlap in time, the first matching stage
/// in file order wins.
struct LossStage {
  std::int64_t fromUs = 0;
  std::int64_t toUs = 0;
  double drop = 0.0;            ///< P(message vanishes), [0, 1]
  double duplicate = 0.0;       ///< P(second copy delivered), [0, 1]
  double delay = 0.0;           ///< P(extra delay added), [0, 1]
  std::int64_t delayMaxUs = 0;  ///< extra delay drawn from U[0, this]
  std::int32_t srcRegion = kAnyRegion;
  std::int32_t dstRegion = kAnyRegion;
};

/// Correlated regional outage: `fraction` of the hosts in `region` are
/// forced offline for every trace epoch overlapping [fromUs, toUs).
/// Epoch granularity is deliberate — onlineness may only change at
/// epoch boundaries, exactly as in the underlying trace, so every reader
/// sees one answer per epoch whatever the thread count or restore point.
struct OutageStage {
  std::int64_t fromUs = 0;
  std::int64_t toUs = 0;
  std::uint32_t region = 0;
  double fraction = 1.0;  ///< fraction of the region affected, (0, 1]
};

/// Flash-crowd join wave: `fraction` of the *whole population* is
/// forced online for every epoch overlapping the window (the member
/// set is a deterministic per-plan hash). Same epoch quantization as
/// outages; an epoch claimed by an outage cannot also be claimed by a
/// flash crowd (the parser rejects such overlap).
struct FlashCrowdStage {
  std::int64_t fromUs = 0;
  std::int64_t toUs = 0;
  double fraction = 0.0;  ///< fraction of all hosts forced online, (0, 1]
};

/// Recurring attacker sweeps (core/attack.hpp) inside a window: every
/// `periodUs` an attacker — drawn from the plan's counter stream — runs
/// a flooding (or legitimate-traffic) sweep against the live overlay.
struct AttackStage {
  std::int64_t fromUs = 0;
  std::int64_t toUs = 0;
  std::int64_t periodUs = 0;
  bool flooding = true;  ///< false: legitimate-traffic sweep
};

/// Parse / validation failure; the message carries the offending line.
class FaultPlanError : public std::runtime_error {
 public:
  explicit FaultPlanError(const std::string& what)
      : std::runtime_error(what) {}
};

/// A full campaign. Default-constructed (or parsed from an empty file)
/// it is empty(): the simulation builds no injector and the wire path
/// stays byte-identical to a build without fault/ in the picture.
struct FaultPlan {
  std::uint64_t seed = 0xFA17ull;  ///< root of every fault counter stream
  std::uint32_t regions = 8;       ///< hash-region count for scoping

  std::vector<LossStage> loss;
  std::vector<OutageStage> outages;
  std::vector<FlashCrowdStage> flashCrowds;
  std::vector<AttackStage> attacks;

  [[nodiscard]] bool empty() const noexcept {
    return loss.empty() && outages.empty() && flashCrowds.empty() &&
           attacks.empty();
  }

  /// First microsecond any stage is active (0 for an empty plan).
  [[nodiscard]] std::int64_t firstStageStartUs() const noexcept;
  /// Last microsecond any stage is active (0 for an empty plan) — the
  /// reconvergence clock in bench/chaos_sweep starts here.
  [[nodiscard]] std::int64_t lastStageEndUs() const noexcept;

  /// Order-sensitive digest of every field, mixed into the checkpoint
  /// config fingerprint. An empty plan fingerprints to 0 so pre-fault
  /// snapshots of fault-free configs stay conceptually "plan-less".
  [[nodiscard]] std::uint64_t fingerprint() const noexcept;
};

/// Parse a campaign file (see docs/SCENARIOS.md). Throws FaultPlanError
/// on any malformed, unknown, out-of-range, or overlapping input —
/// campaign files are user data and every error names its line.
[[nodiscard]] FaultPlan parseFaultPlan(std::istream& in);

/// Parse from an in-memory string (registry scenarios, tests).
[[nodiscard]] FaultPlan parseFaultPlanText(std::string_view text);

/// Load from a file path; wraps open failures in FaultPlanError.
[[nodiscard]] FaultPlan loadFaultPlan(const std::string& path);

}  // namespace avmem::fault
