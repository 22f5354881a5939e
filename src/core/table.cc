#include "core/table.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "core/error.h"

namespace mhbench {

AsciiTable::AsciiTable(std::vector<std::string> header)
    : header_(std::move(header)) {
  MHB_CHECK(!header_.empty());
}

void AsciiTable::AddRow(std::vector<std::string> row) {
  rows_.push_back(std::move(row));
}

std::string AsciiTable::Num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string AsciiTable::Render() const {
  std::size_t cols = header_.size();
  for (const auto& r : rows_) cols = std::max(cols, r.size());
  std::vector<std::size_t> width(cols, 0);
  auto widen = [&](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      width[i] = std::max(width[i], row[i].size());
    }
  };
  widen(header_);
  for (const auto& r : rows_) widen(r);

  std::ostringstream out;
  auto line = [&](const std::vector<std::string>& row) {
    out << "|";
    for (std::size_t i = 0; i < cols; ++i) {
      const std::string cell = i < row.size() ? row[i] : "";
      out << " " << cell << std::string(width[i] - cell.size(), ' ') << " |";
    }
    out << "\n";
  };
  auto rule = [&] {
    out << "+";
    for (std::size_t i = 0; i < cols; ++i) {
      out << std::string(width[i] + 2, '-') << "+";
    }
    out << "\n";
  };
  rule();
  line(header_);
  rule();
  for (const auto& r : rows_) line(r);
  rule();
  return out.str();
}

AsciiChart::AsciiChart(std::string title, std::string x_label,
                       std::string y_label)
    : title_(std::move(title)),
      x_label_(std::move(x_label)),
      y_label_(std::move(y_label)) {}

void AsciiChart::AddSeries(std::string name, std::vector<double> ys) {
  series_.emplace_back(std::move(name), std::move(ys));
}

std::string AsciiChart::Render(int width, int height) const {
  std::ostringstream out;
  out << "# " << title_ << "  (y: " << y_label_ << ", x: " << x_label_
      << ")\n";
  if (series_.empty()) return out.str();

  double y_min = 1e300, y_max = -1e300;
  std::size_t n = 0;
  for (const auto& [name, ys] : series_) {
    for (double y : ys) {
      if (std::isfinite(y)) {
        y_min = std::min(y_min, y);
        y_max = std::max(y_max, y);
      }
    }
    n = std::max(n, ys.size());
  }
  if (n == 0 || y_min > y_max) return out.str();
  if (y_max == y_min) y_max = y_min + 1.0;

  static const char* kMarks = "*o+x#@%&";
  std::vector<std::string> grid(static_cast<std::size_t>(height),
                                std::string(static_cast<std::size_t>(width), ' '));
  for (std::size_t s = 0; s < series_.size(); ++s) {
    const auto& ys = series_[s].second;
    const char mark = kMarks[s % 8];
    for (std::size_t i = 0; i < ys.size(); ++i) {
      if (!std::isfinite(ys[i])) continue;
      const int col = n <= 1 ? 0
                             : static_cast<int>(static_cast<double>(i) /
                                                (n - 1) * (width - 1));
      const int row =
          static_cast<int>((ys[i] - y_min) / (y_max - y_min) * (height - 1));
      grid[static_cast<std::size_t>(height - 1 - row)]
          [static_cast<std::size_t>(col)] = mark;
    }
  }
  char label[32];
  std::snprintf(label, sizeof(label), "%10.3f |", y_max);
  out << label << grid[0] << "\n";
  for (int r = 1; r + 1 < height; ++r) {
    out << "           |" << grid[static_cast<std::size_t>(r)] << "\n";
  }
  std::snprintf(label, sizeof(label), "%10.3f |", y_min);
  out << label << grid[static_cast<std::size_t>(height - 1)] << "\n";
  out << "           +" << std::string(static_cast<std::size_t>(width), '-')
      << "\n";
  out << "  legend:";
  for (std::size_t s = 0; s < series_.size(); ++s) {
    out << "  " << kMarks[s % 8] << "=" << series_[s].first;
  }
  out << "\n";
  return out.str();
}

}  // namespace mhbench
