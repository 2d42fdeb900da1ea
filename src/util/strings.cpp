#include "util/strings.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace cleaks {

std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      return out;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::vector<std::string> split_whitespace(std::string_view text) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) ++i;
    const std::size_t start = i;
    while (i < text.size() && !std::isspace(static_cast<unsigned char>(text[i]))) ++i;
    if (i > start) out.emplace_back(text.substr(start, i - start));
  }
  return out;
}

std::vector<std::string> split_lines(std::string_view text) {
  if (!text.empty() && text.back() == '\n') text.remove_suffix(1);
  if (text.empty()) return {};
  return split(text, '\n');
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.substr(0, prefix.size()) == prefix;
}

bool contains(std::string_view text, std::string_view needle) {
  return text.find(needle) != std::string_view::npos;
}

std::string strformat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  if (needed <= 0) {
    va_end(args_copy);
    return {};
  }
  std::string out(static_cast<std::size_t>(needed), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  va_end(args_copy);
  return out;
}

void strappendf(std::string& out, const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  char stack[256];
  const int needed = std::vsnprintf(stack, sizeof stack, fmt, args);
  va_end(args);
  if (needed <= 0) {
    va_end(args_copy);
    return;
  }
  // Strictly-less keeps the boundary honest: needed == sizeof stack means
  // vsnprintf truncated (the NUL displaced the last byte), so that case
  // must fall through to the heap path along with everything larger.
  // needed == sizeof stack - 1 is the largest string the stack holds
  // whole. Pinned by Strings.StrappendfStackBoundary.
  if (needed < static_cast<int>(sizeof stack)) {
    out.append(stack, static_cast<std::size_t>(needed));
    va_end(args_copy);
    return;
  }
  const std::size_t old_size = out.size();
  out.resize(old_size + static_cast<std::size_t>(needed) + 1);
  std::vsnprintf(out.data() + old_size, static_cast<std::size_t>(needed) + 1,
                 fmt, args_copy);
  va_end(args_copy);
  out.resize(old_size + static_cast<std::size_t>(needed));
}

long long parse_first_int(std::string_view text, long long fallback) {
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (std::isdigit(static_cast<unsigned char>(text[i])) ||
        (text[i] == '-' && i + 1 < text.size() &&
         std::isdigit(static_cast<unsigned char>(text[i + 1])))) {
      return std::strtoll(std::string(text.substr(i)).c_str(), nullptr, 10);
    }
  }
  return fallback;
}

double parse_first_double(std::string_view text, double fallback) {
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (std::isdigit(static_cast<unsigned char>(text[i])) ||
        (text[i] == '-' && i + 1 < text.size() &&
         std::isdigit(static_cast<unsigned char>(text[i + 1])))) {
      return std::strtod(std::string(text.substr(i)).c_str(), nullptr);
    }
  }
  return fallback;
}

std::vector<double> extract_numbers(std::string_view text) {
  std::vector<double> out;
  std::size_t i = 0;
  while (i < text.size()) {
    const bool neg = text[i] == '-' && i + 1 < text.size() &&
                     std::isdigit(static_cast<unsigned char>(text[i + 1]));
    if (neg || std::isdigit(static_cast<unsigned char>(text[i]))) {
      char* end = nullptr;
      const std::string token(text.substr(i));
      out.push_back(std::strtod(token.c_str(), &end));
      i += static_cast<std::size_t>(end - token.c_str());
    } else {
      ++i;
    }
  }
  return out;
}

namespace {

// Recursive matcher over pattern/path tails.
bool glob_match_impl(std::string_view pattern, std::string_view path) {
  while (true) {
    if (pattern.empty()) return path.empty();
    if (pattern.size() >= 2 && pattern[0] == '*' && pattern[1] == '*') {
      // '**' — try consuming 0..all characters of path.
      pattern.remove_prefix(2);
      for (std::size_t skip = 0; skip <= path.size(); ++skip) {
        if (glob_match_impl(pattern, path.substr(skip))) return true;
      }
      return false;
    }
    if (pattern[0] == '*') {
      // '*' — consume 0..n non-'/' characters.
      pattern.remove_prefix(1);
      for (std::size_t skip = 0;; ++skip) {
        if (glob_match_impl(pattern, path.substr(skip))) return true;
        if (skip >= path.size() || path[skip] == '/') return false;
      }
    }
    if (path.empty()) return false;
    if (pattern[0] == '?') {
      if (path[0] == '/') return false;
    } else if (pattern[0] != path[0]) {
      return false;
    }
    pattern.remove_prefix(1);
    path.remove_prefix(1);
  }
}

}  // namespace

bool glob_match(std::string_view pattern, std::string_view path) {
  return glob_match_impl(pattern, path);
}

}  // namespace cleaks
