// Shared plumbing for the paper-artifact benchmark binaries.
//
// Every binary prints the reproduced table/figure as an ASCII table, notes
// the paper's expectation next to the measurement, and optionally appends
// machine-readable rows to a CSV file (--csv=<path>).
#pragma once

#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/pmc.hpp"
#include "support/csv.hpp"
#include "support/error.hpp"
#include "support/options.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"

namespace pmc::bench {

/// Common preamble: prints the artifact banner.
inline void banner(const std::string& artifact, const std::string& claim) {
  std::cout << "\n=== " << artifact << " ===\n"
            << "Paper expectation: " << claim << "\n\n";
}

/// Optional CSV sink.
class CsvSink {
 public:
  CsvSink(const std::string& path, std::vector<std::string> header) {
    if (!path.empty()) {
      writer_.emplace(path);
      writer_->write_row(header);
    }
  }

  void row(const std::vector<std::string>& cells) {
    if (writer_.has_value()) writer_->write_row(cells);
  }

 private:
  std::optional<CsvWriter> writer_;
};

/// The command line as a JSON array of strings, for the "argv" field of a
/// BENCH_*.json artifact: a re-recorded baseline says how it was made.
inline std::string json_argv(int argc, const char** argv) {
  std::string out = "[";
  for (int i = 0; i < argc; ++i) {
    out += i == 0 ? "\"" : ", \"";
    for (const char* c = argv[i]; *c != '\0'; ++c) {
      if (*c == '"' || *c == '\\') out += '\\';
      out += *c;
    }
    out += '"';
  }
  return out + "]";
}

}  // namespace pmc::bench
