// ASCII table and series rendering.
//
// Benchmark binaries print paper tables and figure-shaped series with these
// helpers so all outputs share one format.
#pragma once

#include <string>
#include <vector>

namespace mhbench {

// Column-aligned ASCII table.  Rows may be ragged; missing cells are blank.
class AsciiTable {
 public:
  explicit AsciiTable(std::vector<std::string> header);

  void AddRow(std::vector<std::string> row);

  // Convenience: formats doubles with `precision` decimals.
  static std::string Num(double v, int precision = 2);

  std::string Render() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

// Renders one or more named series as an ASCII line chart (for figure-shaped
// bench output).  X values are shared across series.
class AsciiChart {
 public:
  AsciiChart(std::string title, std::string x_label, std::string y_label);

  void AddSeries(std::string name, std::vector<double> ys);

  std::string Render(int width = 72, int height = 16) const;

 private:
  std::string title_, x_label_, y_label_;
  std::vector<std::pair<std::string, std::vector<double>>> series_;
};

}  // namespace mhbench
