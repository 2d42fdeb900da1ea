#include "util/table.h"

#include <algorithm>
#include <ostream>
#include <stdexcept>

#include "util/strings.h"

namespace cleaks {

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TablePrinter::add_row(std::vector<std::string> cells) {
  if (cells.size() != headers_.size()) {
    throw std::invalid_argument("TablePrinter row arity mismatch");
  }
  rows_.push_back(std::move(cells));
}

std::string TablePrinter::to_string() const {
  std::vector<std::size_t> widths(headers_.size(), 0);
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto render_row = [&](const std::vector<std::string>& row) {
    std::string line;
    for (std::size_t c = 0; c < row.size(); ++c) {
      line += row[c];
      line.append(widths[c] - row[c].size(), ' ');
      if (c + 1 < row.size()) line += "  ";
    }
    while (!line.empty() && line.back() == ' ') line.pop_back();
    line += '\n';
    return line;
  };
  std::string out = render_row(headers_);
  std::string sep;
  for (std::size_t c = 0; c < widths.size(); ++c) {
    sep.append(widths[c], '-');
    if (c + 1 < widths.size()) sep += "  ";
  }
  out += sep + '\n';
  for (const auto& row : rows_) out += render_row(row);
  return out;
}

void TablePrinter::print(std::ostream& os) const { os << to_string(); }

std::string fixed(double value, int decimals) {
  return strformat("%.*f", decimals, value);
}

}  // namespace cleaks
