// Shared test utility: an availability service that can be degraded
// mid-run (outage = answer nothing; lie = systematic over/under-report).
// Promoted out of tests/integration/failure_injection_test.cpp so both
// the integration suite and the fault suite can script service-level
// hostility; wire- and churn-level hostility comes from the fault
// injector (src/fault/) instead.
#pragma once

#include <algorithm>
#include <optional>

#include "avmon/availability_service.hpp"
#include "net/network.hpp"

namespace avmem::fault::testing {

/// An availability service that can be degraded mid-run.
class FlakyAvailabilityService final : public avmon::AvailabilityService {
 public:
  explicit FlakyAvailabilityService(const avmon::AvailabilityService& inner)
      : inner_(inner) {}

  std::optional<double> query(net::NodeIndex querier,
                              net::NodeIndex target) const override {
    if (outage_) return std::nullopt;
    auto v = inner_.query(querier, target);
    if (v && lieFactor_ != 0.0) {
      *v = std::clamp(*v + lieFactor_, 0.0, 1.0);
    }
    return v;
  }

  void setOutage(bool outage) noexcept { outage_ = outage; }
  void setLie(double delta) noexcept { lieFactor_ = delta; }

 private:
  const avmon::AvailabilityService& inner_;
  bool outage_ = false;
  double lieFactor_ = 0.0;
};

}  // namespace avmem::fault::testing
