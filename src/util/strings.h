// Small string utilities shared across modules: splitting for the
// differential analyzer, printf-style formatting for pseudo-file rendering,
// and glob matching for masking policies.
#pragma once

#include <cstdarg>
#include <string>
#include <string_view>
#include <vector>

namespace cleaks {

/// Split on a single character; empty tokens are kept (procfs files use
/// positional whitespace-separated fields, so callers often want them).
std::vector<std::string> split(std::string_view text, char sep);

/// Split on any run of whitespace; empty tokens are dropped.
std::vector<std::string> split_whitespace(std::string_view text);

/// Split into lines ('\n'); a trailing newline does not produce a final
/// empty line.
std::vector<std::string> split_lines(std::string_view text);

bool starts_with(std::string_view text, std::string_view prefix);
bool contains(std::string_view text, std::string_view needle);

/// printf-style formatting into std::string. Pseudo-file generators render a
/// lot of fixed-width numeric text; this keeps them readable.
std::string strformat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// printf-style formatting appended to `out` — the hot-path variant used by
/// pseudo-file generators, which build multi-kilobyte files line by line.
/// Appending in place avoids the temporary-string allocation per line that
/// `out += strformat(...)` would cost.
void strappendf(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

/// Parse the first decimal integer / double appearing in `text`;
/// returns fallback when none found.
long long parse_first_int(std::string_view text, long long fallback = 0);
double parse_first_double(std::string_view text, double fallback = 0.0);

/// Extract every number (int or float) appearing in `text`, in order.
std::vector<double> extract_numbers(std::string_view text);

/// AppArmor-style glob match over '/'-separated paths:
///   '*'  matches any run of non-'/' characters,
///   '**' matches any run of characters including '/',
///   '?'  matches a single non-'/' character.
bool glob_match(std::string_view pattern, std::string_view path);

}  // namespace cleaks
