#include "common/string_util.h"

#include <bit>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace privateclean {

std::string_view TrimWhitespace(std::string_view s) {
  size_t begin = 0;
  while (begin < s.size() &&
         std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  size_t end = s.size();
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

std::string ToLowerAscii(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

std::vector<std::string> Split(std::string_view s, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

Result<int64_t> ParseInt64(std::string_view s) {
  s = TrimWhitespace(s);
  if (s.empty()) return Status::InvalidArgument("empty integer literal");
  int64_t value = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc() || ptr != s.data() + s.size()) {
    return Status::InvalidArgument("not an int64: '" + std::string(s) + "'");
  }
  return value;
}

Result<double> ParseDouble(std::string_view s) {
  s = TrimWhitespace(s);
  if (s.empty()) return Status::InvalidArgument("empty double literal");
  double value = 0.0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc() || ptr != s.data() + s.size()) {
    return Status::InvalidArgument("not a double: '" + std::string(s) + "'");
  }
  return value;
}

std::string FormatDouble(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  // Shortest representation that round-trips: nearly every double does
  // at 15-17 significant digits, so try those three in order (parsing
  // with from_chars, which is allocation-free).
  char buf[64];
  for (int prec = 15; prec <= 17; ++prec) {
    int len = std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    double parsed = 0.0;
    auto [ptr, ec] = std::from_chars(buf, buf + len, parsed);
    if (ec == std::errc() && ptr == buf + len && parsed == v) {
      return std::string(buf, static_cast<size_t>(len));
    }
  }
  return buf;  // %.17g always round-trips for finite doubles.
}

std::string DoubleBitsHex(double v) {
  uint64_t bits = std::bit_cast<uint64_t>(v);
  std::string out(16, '0');
  for (size_t i = 16; i-- > 0; bits >>= 4) {
    out[i] = "0123456789abcdef"[bits & 0xF];
  }
  return out;
}

bool DoubleFromBitsHex(std::string_view hex, double* v) {
  if (hex.size() != 16) return false;
  uint64_t bits = 0;
  for (char c : hex) {
    uint64_t digit;
    if (c >= '0' && c <= '9') {
      digit = static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
    bits = (bits << 4) | digit;
  }
  *v = std::bit_cast<double>(bits);
  return true;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

}  // namespace privateclean
