// Discretized availability PDF and the derived population estimates.
//
// The AVMEM predicates consume the probability distribution of node
// availabilities, "collected and analyzed offline by either a crawler or a
// central server ... communicated to all nodes at pre-run-time and used
// consistently" (paper Section 2.1). This type is that artifact: a
// fixed-bin discretization p(.) plus the expected system size N*, from
// which the predicate terms derive:
//
//   p(a)            — probability density at availability a
//   N*_av(x)        — expected online nodes in [av(x)-eps, av(x)+eps]
//   N*min_av(x)     — minimum expected online nodes in any width-eps
//                     interval wholly inside [av(x)-eps, av(x)+eps]
//
// N* is intentionally frozen: "N* would not be changed even if the actual
// number of online nodes changes"; the analysis tolerates constant-factor
// error.
#pragma once

#include <cstddef>
#include <vector>

#include "stats/histogram.hpp"

namespace avmem::core {

/// Immutable discretized availability distribution plus N*.
class AvailabilityPdf {
 public:
  /// Wrap a filled histogram (bins over [0, 1]) and an expected online
  /// system size `nStar`.
  AvailabilityPdf(stats::Histogram histogram, double nStar);

  /// Build from a sample of availabilities (the "small sample set of
  /// nodes" the paper's crawler would collect).
  [[nodiscard]] static AvailabilityPdf fromSamples(
      const std::vector<double>& availabilities, double nStar,
      std::size_t bins = 20);

  /// Expected number of *online* nodes in the system (fixed).
  [[nodiscard]] double nStar() const noexcept { return nStar_; }

  /// log(N*), computed once: the vertical sub-predicates' numerator.
  [[nodiscard]] double logNStar() const noexcept { return logNStar_; }

  /// Probability density p(a); piecewise constant per bin.
  [[nodiscard]] double density(double a) const noexcept {
    return histogram_.densityAt(a);
  }

  /// Probability mass in [lo, hi] (clipped to [0, 1]); linear
  /// interpolation inside partial bins.
  [[nodiscard]] double mass(double lo, double hi) const noexcept;

  /// N*_av: expected online nodes within +-eps of `av`.
  [[nodiscard]] double nStarAv(double av, double eps) const noexcept {
    return nStar_ * mass(av - eps, av + eps);
  }

  /// N*min_av: N* times the minimum mass of any width-eps window wholly
  /// inside [av-eps, av+eps] (clipped to [0,1]). If the clipped interval
  /// is narrower than eps, the whole interval is the only window.
  [[nodiscard]] double nStarMinAv(double av, double eps) const noexcept;

  [[nodiscard]] const stats::Histogram& histogram() const noexcept {
    return histogram_;
  }

 private:
  stats::Histogram histogram_;
  double nStar_;
  double logNStar_;
};

}  // namespace avmem::core
