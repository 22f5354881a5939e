#include "core/csv.h"

#include <fstream>
#include <sstream>

#include "core/error.h"

namespace mhbench {
namespace {

bool NeedsQuoting(const std::string& cell) {
  return cell.find_first_of(",\"\n\r") != std::string::npos;
}

std::string Quote(const std::string& cell) {
  if (!NeedsQuoting(cell)) return cell;
  std::string out = "\"";
  for (char c : cell) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += "\"";
  return out;
}

}  // namespace

std::string CsvRow(const std::vector<std::string>& cells) {
  std::string out;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i) out += ',';
    out += Quote(cells[i]);
  }
  out += '\n';
  return out;
}

CsvWriter::CsvWriter(std::vector<std::string> header)
    : header_(std::move(header)) {
  MHB_CHECK(!header_.empty());
}

void CsvWriter::AddRow(const std::vector<std::string>& row) {
  MHB_CHECK_EQ(row.size(), header_.size());
  rows_.push_back(row);
}

void CsvWriter::AddRow(const std::vector<double>& row) {
  MHB_CHECK_EQ(row.size(), header_.size());
  std::vector<std::string> cells;
  cells.reserve(row.size());
  for (double v : row) {
    std::ostringstream s;
    s << v;
    cells.push_back(s.str());
  }
  rows_.push_back(std::move(cells));
}

std::string CsvWriter::ToString() const {
  std::string out = CsvRow(header_);
  for (const auto& r : rows_) out += CsvRow(r);
  return out;
}

void CsvWriter::WriteFile(const std::string& path) const {
  std::ofstream f(path);
  MHB_CHECK(f.good()) << "cannot open" << path;
  f << ToString();
  MHB_CHECK(f.good()) << "write failed for" << path;
}

}  // namespace mhbench
