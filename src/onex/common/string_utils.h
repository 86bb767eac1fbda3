#ifndef ONEX_COMMON_STRING_UTILS_H_
#define ONEX_COMMON_STRING_UTILS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "onex/common/result.h"

namespace onex {

/// Splits on any character in `delims`, dropping empty fields.
std::vector<std::string> SplitString(std::string_view text,
                                     std::string_view delims = " \t");

/// Splits on a single delimiter, keeping empty fields (CSV-style).
std::vector<std::string> SplitKeepEmpty(std::string_view text, char delim);

/// Removes leading/trailing whitespace.
std::string_view TrimString(std::string_view text);

std::string ToLower(std::string_view text);

bool StartsWith(std::string_view text, std::string_view prefix);

/// Joins with a separator.
std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view sep);

/// Strict full-string numeric parses; reject partial consumption such as
/// "1.5abc" so malformed data files fail loudly instead of silently
/// truncating values.
Result<double> ParseDouble(std::string_view text);
Result<long long> ParseInt(std::string_view text);

/// 1 to 16 lowercase or uppercase hex digits and nothing else (no sign,
/// prefix or spaces); nullopt otherwise. Callers name their own error.
std::optional<std::uint64_t> ParseHex64(std::string_view text);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace onex

#endif  // ONEX_COMMON_STRING_UTILS_H_
