// Sweep output columns, each declared once.
//
// scale_sweep and chaos_sweep describe every output column in one place —
// a key, a class, and a value — and derive the stdout header, the stdout
// row, and the --json record from that single declaration. The class tells
// tools/check_sim_equivalence.py what it may assume about the column:
//
//  * sim  — a simulation result, or a configuration value that decides
//           one. Two runs of the same world (any thread count, restored
//           from a checkpoint or warmed up fresh, under an active fault
//           campaign) must agree on it exactly;
//  * perf — a host measurement (wall clocks, rates over them) or the
//           thread count; free to differ between runs.
//
// The JSON carries the classes with it: a top-level "classes" object maps
// every point key and every top-level field to "sim" or "perf", so the
// checker holds no schema of its own. "points" and "classes" are the only
// unclassified keys.
//
// `sim` doubles print with max_digits10 significant digits, so a value
// read back from the JSON is the exact double the run computed and the
// checker compares it to the last bit. Everything else prints as a
// default std::ostream does (six significant digits for `perf` doubles).
// Sweep JSON files written before sim doubles went exact carry six-digit
// sim values; compare a file only with one of the same vintage.
#pragma once

#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace avmem::benchfig {

/// What a run-to-run comparison may assume about a column.
enum class ColumnClass : std::uint8_t {
  kSim,   ///< must be identical across two runs of the same world
  kPerf,  ///< host-dependent; may differ
};

[[nodiscard]] constexpr const char* toString(ColumnClass c) noexcept {
  return c == ColumnClass::kSim ? "sim" : "perf";
}

/// One record — a sweep point, or a run's top-level fields — as an
/// ordered list of (key, class, formatted value) columns.
class Columns {
 public:
  template <class T>
  Columns& sim(const char* key, const T& value) {
    return add(key, ColumnClass::kSim, value);
  }
  template <class T>
  Columns& perf(const char* key, const T& value) {
    return add(key, ColumnClass::kPerf, value);
  }

  /// "# key key ...\n" — the stdout header for rows of this shape.
  void printHeader(std::ostream& out) const {
    out << "#";
    for (const Column& c : cols_) out << " " << c.key;
    out << "\n";
  }

  /// The values, space-separated, strings unquoted.
  void printRow(std::ostream& out) const {
    for (std::size_t i = 0; i < cols_.size(); ++i) {
      out << (i == 0 ? "" : " ") << cols_[i].text;
    }
    out << "\n";
  }

  /// Writes `"key": value` pairs joined by `sep` (strings quoted).
  void writeJsonFields(std::ostream& out, std::string_view sep) const {
    for (std::size_t i = 0; i < cols_.size(); ++i) {
      const Column& c = cols_[i];
      out << (i == 0 ? "" : sep) << "\"" << c.key << "\": ";
      if (c.quoted) {
        out << "\"" << c.text << "\"";
      } else {
        out << c.text;
      }
    }
  }

  /// Adds every (key, class) of this record to `classes`, keeping first
  /// appearance order. A key already present under the other class is a
  /// sweep bug: one JSON file cannot say both.
  void collectClasses(
      std::vector<std::pair<std::string, ColumnClass>>& classes) const {
    for (const Column& c : cols_) {
      bool seen = false;
      for (const auto& [key, cls] : classes) {
        if (key != c.key) continue;
        if (cls != c.cls) {
          throw std::logic_error("column '" + c.key +
                                 "' declared as both sim and perf");
        }
        seen = true;
      }
      if (!seen) classes.emplace_back(c.key, c.cls);
    }
  }

 private:
  struct Column {
    std::string key;
    ColumnClass cls;
    std::string text;  ///< the value as stdout prints it
    bool quoted;       ///< a JSON string
  };

  template <class T>
  Columns& add(const char* key, ColumnClass cls, const T& value) {
    std::ostringstream text;
    if constexpr (std::is_same_v<T, bool>) {
      text << (value ? "true" : "false");
    } else {
      if constexpr (std::is_floating_point_v<T>) {
        if (cls == ColumnClass::kSim) {
          text.precision(std::numeric_limits<T>::max_digits10);
        }
      }
      text << value;
    }
    cols_.push_back({key, cls, text.str(),
                     std::is_convertible_v<const T&, std::string_view>});
    return *this;
  }

  std::vector<Column> cols_;
};

/// Writes a sweep's --json file: the `top` fields (its first column is
/// "bench"), the "classes" map over every key written, then one line per
/// point. Reports the write, or the failure to write `path`, on stderr;
/// false on failure, so the sweep can exit non-zero.
[[nodiscard]] inline bool writeSweepJson(const std::string& path,
                                         const Columns& top,
                                         const std::vector<Columns>& points) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write '" << path << "'\n";
    return false;
  }
  std::vector<std::pair<std::string, ColumnClass>> classes;
  top.collectClasses(classes);
  for (const Columns& p : points) p.collectClasses(classes);

  out << "{\n  ";
  top.writeJsonFields(out, ",\n  ");
  out << ",\n  \"classes\": {";
  for (std::size_t i = 0; i < classes.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "\"" << classes[i].first << "\": \""
        << toString(classes[i].second) << "\"";
  }
  out << "},\n  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    out << "    {";
    points[i].writeJsonFields(out, ", ");
    out << "}" << (i + 1 < points.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  out.close();
  if (!out) {
    std::cerr << "cannot write '" << path << "'\n";
    return false;
  }
  std::cerr << "wrote " << points.size() << " point(s) to " << path << "\n";
  return true;
}

}  // namespace avmem::benchfig
