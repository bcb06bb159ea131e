#include "core/availability_pdf.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace avmem::core {

AvailabilityPdf::AvailabilityPdf(stats::Histogram histogram, double nStar)
    : histogram_(std::move(histogram)),
      nStar_(nStar),
      logNStar_(std::log(nStar)) {
  if (nStar <= 0.0) {
    throw std::invalid_argument("AvailabilityPdf: nStar must be positive");
  }
  if (histogram_.lo() != 0.0 || histogram_.hi() != 1.0) {
    throw std::invalid_argument("AvailabilityPdf: histogram must span [0,1]");
  }
  if (histogram_.totalCount() == 0) {
    throw std::invalid_argument("AvailabilityPdf: empty histogram");
  }
}

AvailabilityPdf AvailabilityPdf::fromSamples(
    const std::vector<double>& availabilities, double nStar,
    std::size_t bins) {
  stats::Histogram h(0.0, 1.0, bins);
  for (const double a : availabilities) h.add(a);
  return AvailabilityPdf(std::move(h), nStar);
}

double AvailabilityPdf::mass(double lo, double hi) const noexcept {
  lo = std::max(lo, 0.0);
  hi = std::min(hi, 1.0);
  if (lo >= hi) return 0.0;

  const std::size_t first = histogram_.binIndex(lo);
  const std::size_t last = histogram_.binIndex(hi);
  const double w = histogram_.binWidth();

  if (first == last) {
    // Partial coverage of one bin: linear within the bin.
    return histogram_.fraction(first) * (hi - lo) / w;
  }

  double total = 0.0;
  // Partial first bin.
  total += histogram_.fraction(first) * (histogram_.binHi(first) - lo) / w;
  // Whole middle bins.
  for (std::size_t i = first + 1; i < last; ++i) {
    total += histogram_.fraction(i);
  }
  // Partial last bin.
  total += histogram_.fraction(last) * (hi - histogram_.binLo(last)) / w;
  return total;
}

double AvailabilityPdf::nStarMinAv(double av, double eps) const noexcept {
  const double lo = std::max(av - eps, 0.0);
  const double hi = std::min(av + eps, 1.0);
  if (hi - lo <= eps) {
    // Clipped interval narrower than one window: the interval itself.
    return nStar_ * mass(lo, hi);
  }
  // Slide a width-eps window at quarter-bin resolution; the mass function
  // is piecewise linear, so this granularity captures the minimum to
  // within a negligible quantization error.
  const double step = histogram_.binWidth() / 4.0;
  double minMass = mass(lo, lo + eps);
  for (double v = lo + step; v + eps <= hi + 1e-12; v += step) {
    minMass = std::min(minMass, mass(v, std::min(v + eps, hi)));
  }
  return nStar_ * minMass;
}

}  // namespace avmem::core
