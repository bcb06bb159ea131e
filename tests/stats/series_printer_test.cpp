#include "stats/series_printer.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

namespace avmem::stats {
namespace {

TEST(TablePrinterTest, AlignsHeadersAndRows) {
  TablePrinter t({"alpha", "beta"});
  t.addRow({1.0, 2.5});
  t.addRow({10.0, 0.125});
  EXPECT_EQ(t.rowCount(), 2u);

  std::ostringstream os;
  t.print(os, 3);
  const std::string out = os.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("beta"), std::string::npos);
  EXPECT_NE(out.find("1.000"), std::string::npos);
  EXPECT_NE(out.find("0.125"), std::string::npos);
  // One header line + two data lines.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 3);
}

TEST(TablePrinterTest, LongHeadersStaySeparatedAndAligned) {
  TablePrinter t({"retries", "fraction_delivered", "avg_delivery_latency_ms"});
  t.addRow({2.0, 0.5, 739.25});
  std::ostringstream os;
  t.print(os, 2);

  std::istringstream lines(os.str());
  std::string header;
  std::string row;
  std::getline(lines, header);
  std::getline(lines, row);
  std::istringstream words(header);
  std::vector<std::string> tokens;
  for (std::string w; words >> w;) tokens.push_back(w);
  EXPECT_EQ(tokens, (std::vector<std::string>{"retries", "fraction_delivered",
                                              "avg_delivery_latency_ms"}));
  // Values are right-aligned under their headers.
  EXPECT_EQ(header.size(), row.size());
  EXPECT_EQ(header.find("fraction_delivered") + 18, row.find("0.50") + 4);
}

TEST(TablePrinterTest, PrecisionIsHonored) {
  TablePrinter t({"x"});
  t.addRow({1.0 / 3.0});
  std::ostringstream os;
  t.print(os, 2);
  EXPECT_NE(os.str().find("0.33"), std::string::npos);
  EXPECT_EQ(os.str().find("0.333"), std::string::npos);
}

TEST(PrintCdfTest, EmitsEverySampleWithCumulativeFractions) {
  EmpiricalCdf cdf;
  cdf.add(3.0);
  cdf.add(1.0);
  std::ostringstream os;
  printCdf(os, "test", cdf);
  const std::string out = os.str();
  EXPECT_NE(out.find("# CDF: test (n=2)"), std::string::npos);
  EXPECT_NE(out.find("1.0000\t0.5000"), std::string::npos);
  EXPECT_NE(out.find("3.0000\t1.0000"), std::string::npos);
}

TEST(PrintCdfCompactTest, DownsamplesToRequestedPoints) {
  EmpiricalCdf cdf;
  for (int i = 1; i <= 1000; ++i) cdf.add(i);
  std::ostringstream os;
  printCdfCompact(os, "big", cdf, 5);
  const std::string out = os.str();
  // Header + exactly 5 quantile lines.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 6);
  EXPECT_NE(out.find("\t1.0000"), std::string::npos);  // final quantile
}

TEST(PrintCdfCompactTest, EmptyCdfIsHandled) {
  EmpiricalCdf cdf;
  std::ostringstream os;
  printCdfCompact(os, "empty", cdf, 5);
  EXPECT_NE(os.str().find("(empty)"), std::string::npos);
}

}  // namespace
}  // namespace avmem::stats
