#include "common/string_util.h"

#include <charconv>

namespace tenet {

std::string AsciiToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = AsciiFoldChar(c);
  return out;
}

std::vector<std::string> SplitString(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    size_t end = s.find(sep, start);
    if (end == std::string_view::npos) end = s.size();
    if (end > start) out.emplace_back(s.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

std::string JoinStrings(const std::vector<std::string>& pieces,
                        std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out += sep;
    out += pieces[i];
  }
  return out;
}

std::string_view StripWhitespace(std::string_view s) {
  size_t begin = 0;
  while (begin < s.size() &&
         IsAsciiSpaceChar(s[begin])) {
    ++begin;
  }
  size_t end = s.size();
  while (end > begin &&
         IsAsciiSpaceChar(s[end - 1])) {
    --end;
  }
  return s.substr(begin, end - begin);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

bool IsAsciiNumber(std::string_view s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (!IsAsciiDigitChar(c)) return false;
  }
  return true;
}

bool IsCapitalized(std::string_view s) {
  return !s.empty() && IsAsciiUpperChar(s[0]);
}

Result<int64_t> ParseInt64(std::string_view s) {
  int64_t value = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec == std::errc::result_out_of_range) {
    return Status::InvalidArgument("integer out of range: " + std::string(s));
  }
  if (ec != std::errc() || ptr != s.data() + s.size()) {
    return Status::InvalidArgument("not an integer: " + std::string(s));
  }
  return value;
}

Result<double> ParseFloat64(std::string_view s) {
  double value = 0.0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec == std::errc::result_out_of_range) {
    return Status::InvalidArgument("number out of range: " + std::string(s));
  }
  if (ec != std::errc() || ptr != s.data() + s.size()) {
    return Status::InvalidArgument("not a number: " + std::string(s));
  }
  return value;
}

}  // namespace tenet
