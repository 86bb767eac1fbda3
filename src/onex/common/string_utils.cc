#include "onex/common/string_utils.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdarg>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

namespace onex {

std::vector<std::string> SplitString(std::string_view text,
                                     std::string_view delims) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t end = text.find_first_of(delims, start);
    if (end == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      break;
    }
    if (end > start) out.emplace_back(text.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

std::vector<std::string> SplitKeepEmpty(std::string_view text, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t end = text.find(delim, start);
    if (end == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      break;
    }
    out.emplace_back(text.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

std::string_view TrimString(std::string_view text) {
  std::size_t begin = 0;
  while (begin < text.size() &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  std::size_t end = text.size();
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

std::string ToLower(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

Result<double> ParseDouble(std::string_view text) {
  const std::string_view trimmed = TrimString(text);
  if (trimmed.empty()) {
    return Status::ParseError("empty string is not a number");
  }
  const std::string buf(trimmed);
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size() || errno == ERANGE) {
    return Status::ParseError("not a number: '" + buf + "'");
  }
  return value;
}

Result<long long> ParseInt(std::string_view text) {
  const std::string_view trimmed = TrimString(text);
  if (trimmed.empty()) {
    return Status::ParseError("empty string is not an integer");
  }
  const std::string buf(trimmed);
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(buf.c_str(), &end, 10);
  if (end != buf.c_str() + buf.size() || errno == ERANGE) {
    return Status::ParseError("not an integer: '" + buf + "'");
  }
  return value;
}

std::optional<std::uint64_t> ParseHex64(std::string_view text) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value, 16);
  if (text.size() > 16 || error != std::errc() || stop != end) {
    return std::nullopt;
  }
  return value;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<std::size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

}  // namespace onex
