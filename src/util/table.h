// Plain-text table emission for the benchmark harness. Every bench
// prints the rows/series its paper table or figure reports; TablePrinter
// keeps that output aligned and diff-friendly.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace cleaks {

class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  /// Append one row; must have the same arity as the headers.
  void add_row(std::vector<std::string> cells);

  /// Render with aligned columns and a header separator.
  [[nodiscard]] std::string to_string() const;

  void print(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format a double with fixed decimals (helper for bench rows).
std::string fixed(double value, int decimals);

}  // namespace cleaks
