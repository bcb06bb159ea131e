// Plain-text rendering of benchmark output: aligned tables and CDF series.
//
// The bench binaries print the paper's figures as rows/series on stdout;
// this keeps that output consistent and greppable.
#pragma once

#include <algorithm>
#include <cstdio>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "stats/cdf.hpp"

namespace avmem::stats {

/// A simple fixed-width column table writer.
///
///   TablePrinter t({"availability", "hs_size", "vs_size"});
///   t.addRow({0.35, 12, 7});
///   t.print(std::cout);
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void addRow(std::vector<double> row) { rows_.push_back(std::move(row)); }

  /// Each column is at least 16 characters wide, and one wider than its
  /// header, so adjacent headers never run together.
  void print(std::ostream& os, int precision = 4) const {
    const auto width = [this](std::size_t column) {
      const std::size_t header =
          column < headers_.size() ? headers_[column].size() + 1 : 0;
      return static_cast<int>(std::max(kMinWidth, header));
    };
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      os << std::setw(width(c)) << headers_[c];
    }
    os << '\n';
    os << std::fixed << std::setprecision(precision);
    for (const auto& row : rows_) {
      for (std::size_t c = 0; c < row.size(); ++c) {
        os << std::setw(width(c)) << row[c];
      }
      os << '\n';
    }
    os.unsetf(std::ios_base::floatfield);
  }

  [[nodiscard]] std::size_t rowCount() const noexcept { return rows_.size(); }

 private:
  static constexpr std::size_t kMinWidth = 16;

  std::vector<std::string> headers_;
  std::vector<std::vector<double>> rows_;
};

/// Print a CDF as "value  cumulative_fraction" pairs at every sample,
/// matching the step-plot style of the paper's Figures 11-13.
inline void printCdf(std::ostream& os, const std::string& label,
                     const EmpiricalCdf& cdf, int precision = 4) {
  os << "# CDF: " << label << " (n=" << cdf.count() << ")\n";
  const auto xs = cdf.sortedSamples();
  os << std::fixed << std::setprecision(precision);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double frac =
        static_cast<double>(i + 1) / static_cast<double>(xs.size());
    os << xs[i] << '\t' << frac << '\n';
  }
  os.unsetf(std::ios_base::floatfield);
}

/// Print a CDF down-sampled to `points` evenly spaced cumulative levels —
/// keeps bench output readable for thousands of samples.
inline void printCdfCompact(std::ostream& os, const std::string& label,
                            const EmpiricalCdf& cdf, int points = 20,
                            int precision = 4) {
  os << "# CDF: " << label << " (n=" << cdf.count() << ")\n";
  if (cdf.empty()) {
    os << "# (empty)\n";
    return;
  }
  os << std::fixed << std::setprecision(precision);
  for (int i = 1; i <= points; ++i) {
    const double q = static_cast<double>(i) / points;
    os << cdf.quantile(q) << '\t' << q << '\n';
  }
  os.unsetf(std::ios_base::floatfield);
}

}  // namespace avmem::stats
