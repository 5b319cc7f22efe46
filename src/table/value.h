#ifndef PRIVATECLEAN_TABLE_VALUE_H_
#define PRIVATECLEAN_TABLE_VALUE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <variant>

#include "common/result.h"

namespace privateclean {

/// Physical type of a column or boxed value.
enum class ValueType {
  kNull = 0,    ///< Only Value may be null-typed; columns are typed.
  kInt64 = 1,   ///< 64-bit signed integer.
  kDouble = 2,  ///< IEEE double.
  kString = 3,  ///< UTF-8 string.
};

/// Human-readable type name ("null", "int64", "double", "string").
const char* ValueTypeToString(ValueType type);

/// Boxed scalar used at API edges: table builders, CSV parsing, predicate
/// literals, and cleaning UDF inputs/outputs. Columns store unboxed typed
/// vectors internally (see Column); Value is the lingua franca between the
/// user and the engine.
class Value {
 public:
  /// Null value.
  Value() : data_(std::monostate{}) {}

  /// Typed constructors. The int/string constructors are intentionally
  /// implicit so predicate and cleaning literals read naturally
  /// (e.g. `Predicate::Equals("major", "EECS")`).
  Value(int64_t v) : data_(v) {}
  Value(int v) : data_(static_cast<int64_t>(v)) {}
  Value(double v) : data_(v) {}
  Value(std::string v) : data_(std::move(v)) {}
  Value(const char* v) : data_(std::string(v)) {}

  /// Named factory for the null value, clearer at call sites than `Value()`.
  static Value Null() { return Value(); }

  ValueType type() const {
    switch (data_.index()) {
      case 0:
        return ValueType::kNull;
      case 1:
        return ValueType::kInt64;
      case 2:
        return ValueType::kDouble;
      default:
        return ValueType::kString;
    }
  }

  bool is_null() const { return type() == ValueType::kNull; }

  /// Unchecked accessors; calling the wrong one is a bug (asserts in
  /// debug via std::get).
  int64_t AsInt64() const { return std::get<int64_t>(data_); }
  double AsDouble() const { return std::get<double>(data_); }
  const std::string& AsString() const { return std::get<std::string>(data_); }

  /// Numeric view: int64 and double both convert. A string value is
  /// InvalidArgument and NULL is FailedPrecondition — never a silent
  /// 0.0, which would fold unnoticed into SUM/AVG/VAR aggregates.
  Result<double> ToNumeric() const;

  /// Renders the value for display/CSV. Null renders as the empty string.
  std::string ToString() const;

  /// Structural equality: same type and same payload. Null == Null.
  friend bool operator==(const Value& a, const Value& b) {
    return a.data_ == b.data_;
  }
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }

  /// Total order for use in ordered containers: by type index, then payload.
  friend bool operator<(const Value& a, const Value& b) {
    return a.data_ < b.data_;
  }

  /// Hash compatible with operator==.
  size_t Hash() const;

 private:
  std::variant<std::monostate, int64_t, double, std::string> data_;
};

/// std::hash adapter so Value can key unordered containers.
struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

/// The int64 equal to `d`, or nullopt when `d` has a fraction, is NaN or
/// lies outside int64's range.
std::optional<int64_t> ExactInt64(double d);

/// The double equal to `i`, or nullopt when no double is (|i| > 2^53 and
/// odd enough to round).
std::optional<double> ExactDouble(int64_t i);

/// SQL equality (`=`, `!=`, IN): an int64 and a double compare by value —
/// they are equal iff ExactInt64 of the double is the int64 — and every
/// other pair by operator==. A NaN equals nothing.
bool ValuesEqual(const Value& a, const Value& b);

}  // namespace privateclean

#endif  // PRIVATECLEAN_TABLE_VALUE_H_
