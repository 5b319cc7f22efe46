#ifndef PRIVATECLEAN_COMMON_STRING_UTIL_H_
#define PRIVATECLEAN_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace privateclean {

/// Removes leading and trailing ASCII whitespace.
std::string_view TrimWhitespace(std::string_view s);

/// ASCII lower-casing (locale-independent).
std::string ToLowerAscii(std::string_view s);

/// Splits on a single delimiter character; keeps empty fields, so
/// Split("a,,b", ',') == {"a", "", "b"}.
std::vector<std::string> Split(std::string_view s, char delim);

/// Joins with a separator.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep);

/// Strict full-string parses (no trailing garbage, no empty input).
Result<int64_t> ParseInt64(std::string_view s);
Result<double> ParseDouble(std::string_view s);

/// Formats a double compactly: integral values without a decimal point,
/// otherwise shortest round-trip representation.
std::string FormatDouble(double v);

/// The 16 lowercase hex digits of a double's IEEE-754 bit pattern. Ledger
/// WAL records, release MANIFESTs and QUERY frames carry doubles this
/// way, so a value read back is bit-identical to the one written.
std::string DoubleBitsHex(double v);

/// Inverse of DoubleBitsHex: false unless `hex` is exactly 16 lowercase
/// hex digits, the only form any writer emits.
bool DoubleFromBitsHex(std::string_view hex, double* v);

/// True if `s` starts with / ends with the given prefix/suffix.
bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

}  // namespace privateclean

#endif  // PRIVATECLEAN_COMMON_STRING_UTIL_H_
