// Minimal CSV writer used by the benchmark harness to dump raw series next
// to the rendered tables (so results can be re-plotted outside the repo).
#pragma once

#include <string>
#include <vector>

namespace mhbench {

// One CSV line: `cells` joined by commas (RFC-4180 quoting for cells
// containing commas, quotes or newlines), terminated by "\n".
std::string CsvRow(const std::vector<std::string>& cells);

class CsvWriter {
 public:
  explicit CsvWriter(std::vector<std::string> header);

  void AddRow(const std::vector<std::string>& row);
  void AddRow(const std::vector<double>& row);

  // Serializes to CSV text (RFC-4180 quoting for cells containing commas,
  // quotes or newlines).
  std::string ToString() const;

  // Writes to `path`; throws mhbench::Error on I/O failure.
  void WriteFile(const std::string& path) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace mhbench
