// Small string helpers shared across modules.

#ifndef APICHECKER_UTIL_STRINGS_H_
#define APICHECKER_UTIL_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace apichecker::util {

// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// Splits on a single-character delimiter; empty fields are preserved.
std::vector<std::string> Split(std::string_view text, char delim);

// Joins with a separator.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

bool StartsWith(std::string_view text, std::string_view prefix);
bool EndsWith(std::string_view text, std::string_view suffix);

// Escapes `s` for a JSON string literal (without the quotes): ", \, \n and
// \t get their short escapes, other control bytes become \u00XX, and every
// other byte (UTF-8 included) passes through.
std::string JsonEscape(std::string_view s);

// Formats a double with `digits` fractional digits (fixed notation).
std::string FormatDouble(double value, int digits);

// Formats a fraction in [0,1] as a percentage string, e.g. "98.6%".
std::string FormatPercent(double fraction, int digits = 1);

// Human-readable large count, e.g. 42'300'000 -> "42.3M".
std::string FormatCount(double value);

}  // namespace apichecker::util

#endif  // APICHECKER_UTIL_STRINGS_H_
