#include "trace/trace_io.hpp"

#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace avmem::trace {

namespace {
constexpr const char* kMagic = "AVMEM-TRACE v1";
}

void saveTrace(std::ostream& os, const ChurnTrace& trace) {
  os << kMagic << '\n';
  os << "hosts " << trace.hostCount() << " epochs " << trace.epochCount()
     << " epoch_us " << trace.epochDuration().toMicros() << '\n';
  std::string line(trace.epochCount(), '0');
  for (HostIndex h = 0; h < trace.hostCount(); ++h) {
    for (std::size_t e = 0; e < trace.epochCount(); ++e) {
      line[e] = trace.onlineInEpoch(h, e) ? '1' : '0';
    }
    os << line << '\n';
  }
  if (!os) {
    throw std::ios_base::failure("saveTrace: write failed");
  }
}

ChurnTrace loadTrace(std::istream& is) {
  std::string magic;
  std::getline(is, magic);
  if (magic != kMagic) {
    throw std::runtime_error("loadTrace: bad magic line '" + magic + "'");
  }

  std::string header;
  std::getline(is, header);
  std::istringstream hs(header);
  std::string kwHosts, kwEpochs, kwEpochUs;
  std::size_t hosts = 0, epochs = 0;
  std::int64_t epochUs = 0;
  hs >> kwHosts >> hosts >> kwEpochs >> epochs >> kwEpochUs >> epochUs;
  if (!hs || kwHosts != "hosts" || kwEpochs != "epochs" ||
      kwEpochUs != "epoch_us" || hosts == 0 || epochs == 0 || epochUs <= 0) {
    throw std::runtime_error("loadTrace: bad header '" + header + "'");
  }

  // Rows grow with the lines actually read, never with the header's
  // claim: a lying host count fails as "truncated", not as an allocation.
  std::vector<std::vector<std::uint8_t>> timeline;
  std::string line;
  for (std::size_t h = 0; h < hosts; ++h) {
    if (!std::getline(is, line)) {
      throw std::runtime_error("loadTrace: truncated at host " +
                               std::to_string(h));
    }
    if (line.size() != epochs) {
      throw std::runtime_error("loadTrace: host " + std::to_string(h) +
                               " has " + std::to_string(line.size()) +
                               " epochs, expected " + std::to_string(epochs));
    }
    std::vector<std::uint8_t> row(epochs);
    for (std::size_t e = 0; e < epochs; ++e) {
      if (line[e] == '0') {
        row[e] = 0;
      } else if (line[e] == '1') {
        row[e] = 1;
      } else {
        throw std::runtime_error("loadTrace: invalid char in host " +
                                 std::to_string(h));
      }
    }
    timeline.push_back(std::move(row));
  }
  return ChurnTrace(std::move(timeline), sim::SimDuration::micros(epochUs));
}

void saveTraceFile(const std::string& path, const ChurnTrace& trace) {
  std::ofstream f(path);
  if (!f) {
    throw std::ios_base::failure("saveTraceFile: cannot open " + path);
  }
  saveTrace(f, trace);
}

ChurnTrace loadTraceFile(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    throw std::ios_base::failure("loadTraceFile: cannot open " + path);
  }
  return loadTrace(f);
}

}  // namespace avmem::trace
