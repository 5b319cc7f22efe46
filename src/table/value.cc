#include "table/value.h"

#include <cmath>

#include "common/string_util.h"

namespace privateclean {

const char* ValueTypeToString(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "null";
    case ValueType::kInt64:
      return "int64";
    case ValueType::kDouble:
      return "double";
    case ValueType::kString:
      return "string";
  }
  return "unknown";
}

Result<double> Value::ToNumeric() const {
  switch (type()) {
    case ValueType::kInt64:
      return static_cast<double>(AsInt64());
    case ValueType::kDouble:
      return AsDouble();
    case ValueType::kString:
      return Status::InvalidArgument("cannot read string value '" +
                                     AsString() + "' as numeric");
    case ValueType::kNull:
      return Status::FailedPrecondition("cannot read NULL as numeric");
  }
  return Status::Internal("unhandled value type");
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "";
    case ValueType::kInt64:
      return std::to_string(AsInt64());
    case ValueType::kDouble:
      return FormatDouble(AsDouble());
    case ValueType::kString:
      return AsString();
  }
  return "";
}

size_t Value::Hash() const {
  // Mix the type index so int64(0), double(0.0) and "" hash differently.
  size_t seed = data_.index() * 0x9E3779B97F4A7C15ULL;
  size_t h = 0;
  switch (type()) {
    case ValueType::kNull:
      h = 0;
      break;
    case ValueType::kInt64:
      h = std::hash<int64_t>{}(AsInt64());
      break;
    case ValueType::kDouble:
      h = std::hash<double>{}(AsDouble());
      break;
    case ValueType::kString:
      h = std::hash<std::string>{}(AsString());
      break;
  }
  return seed ^ (h + 0x9E3779B9U + (seed << 6) + (seed >> 2));
}

std::optional<int64_t> ExactInt64(double d) {
  // [-2^63, 2^63): both bounds are exact doubles; NaN fails both tests.
  if (!(d >= -9223372036854775808.0 && d < 9223372036854775808.0) ||
      std::trunc(d) != d) {
    return std::nullopt;
  }
  return static_cast<int64_t>(d);
}

std::optional<double> ExactDouble(int64_t i) {
  const double d = static_cast<double>(i);
  if (ExactInt64(d) != i) return std::nullopt;
  return d;
}

bool ValuesEqual(const Value& a, const Value& b) {
  if (a.type() == ValueType::kInt64 && b.type() == ValueType::kDouble) {
    return ExactInt64(b.AsDouble()) == a.AsInt64();
  }
  if (a.type() == ValueType::kDouble && b.type() == ValueType::kInt64) {
    return ExactInt64(a.AsDouble()) == b.AsInt64();
  }
  return a == b;
}

}  // namespace privateclean
