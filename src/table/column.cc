#include "table/column.h"

#include "common/check.h"

namespace privateclean {

Result<Column> Column::Make(ValueType type) {
  if (type == ValueType::kNull) {
    return Status::InvalidArgument("column type cannot be null");
  }
  return Column(type);
}

void Column::AppendNull() {
  switch (type_) {
    case ValueType::kInt64:
      ints_.push_back(0);
      break;
    case ValueType::kDouble:
      doubles_.push_back(0.0);
      break;
    case ValueType::kString:
      codes_.push_back(kNullCode);
      break;
    case ValueType::kNull:
      PCLEAN_CHECK(false);
  }
  valid_.push_back(0);
  ++null_count_;
}

void Column::AppendInt64(int64_t v) {
  PCLEAN_CHECK(type_ == ValueType::kInt64);
  ints_.push_back(v);
  valid_.push_back(1);
}

void Column::AppendDouble(double v) {
  PCLEAN_CHECK(type_ == ValueType::kDouble);
  doubles_.push_back(v);
  valid_.push_back(1);
}

void Column::AppendString(std::string_view v) {
  PCLEAN_CHECK(type_ == ValueType::kString);
  codes_.push_back(dict_.Intern(v));
  valid_.push_back(1);
}

Status Column::AppendValue(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return Status::OK();
  }
  if (v.type() != type_) {
    return Status::InvalidArgument(
        std::string("cannot append ") + ValueTypeToString(v.type()) +
        " value to " + ValueTypeToString(type_) + " column");
  }
  switch (type_) {
    case ValueType::kInt64:
      AppendInt64(v.AsInt64());
      break;
    case ValueType::kDouble:
      AppendDouble(v.AsDouble());
      break;
    case ValueType::kString:
      AppendString(v.AsString());
      break;
    case ValueType::kNull:
      PCLEAN_CHECK(false);
  }
  return Status::OK();
}

double Column::NumericAt(size_t row) const {
  if (IsNull(row)) return 0.0;
  switch (type_) {
    case ValueType::kInt64:
      return static_cast<double>(ints_[row]);
    case ValueType::kDouble:
      return doubles_[row];
    default:
      PCLEAN_CHECK(false);
      return 0.0;
  }
}

Value Column::ValueAt(size_t row) const {
  if (IsNull(row)) return Value::Null();
  switch (type_) {
    case ValueType::kInt64:
      return Value(ints_[row]);
    case ValueType::kDouble:
      return Value(doubles_[row]);
    case ValueType::kString:
      return Value(std::string(dict_.At(codes_[row])));
    case ValueType::kNull:
      break;
  }
  PCLEAN_CHECK(false);
  return Value::Null();
}

Status Column::SetValue(size_t row, const Value& v) {
  if (row >= size()) {
    return Status::OutOfRange("row " + std::to_string(row) +
                              " out of range for column of size " +
                              std::to_string(size()));
  }
  bool was_null = IsNull(row);
  if (v.is_null()) {
    switch (type_) {
      case ValueType::kInt64:
        ints_[row] = 0;
        break;
      case ValueType::kDouble:
        doubles_[row] = 0.0;
        break;
      case ValueType::kString:
        codes_[row] = kNullCode;
        break;
      case ValueType::kNull:
        PCLEAN_CHECK(false);
    }
    valid_[row] = 0;
    if (!was_null) ++null_count_;
    return Status::OK();
  }
  if (v.type() != type_) {
    return Status::InvalidArgument(
        std::string("cannot set ") + ValueTypeToString(v.type()) +
        " value in " + ValueTypeToString(type_) + " column");
  }
  switch (type_) {
    case ValueType::kInt64:
      ints_[row] = v.AsInt64();
      break;
    case ValueType::kDouble:
      doubles_[row] = v.AsDouble();
      break;
    case ValueType::kString:
      codes_[row] = dict_.Intern(v.AsString());
      break;
    case ValueType::kNull:
      PCLEAN_CHECK(false);
  }
  valid_[row] = 1;
  if (was_null) --null_count_;
  return Status::OK();
}

Result<PreparedValues> Column::PrepareValues(const std::vector<Value>& values) {
  for (const Value& v : values) {
    if (!v.is_null() && v.type() != type_) {
      return Status::InvalidArgument(
          std::string("cannot set ") + ValueTypeToString(v.type()) +
          " value in " + ValueTypeToString(type_) + " column");
    }
  }
  PreparedValues out;
  out.words_.reserve(values.size());
  out.valid_.reserve(values.size());
  for (const Value& v : values) {
    uint64_t word = type_ == ValueType::kString ? kNullCode : 0;
    if (!v.is_null()) {
      switch (type_) {
        case ValueType::kInt64:
          word = static_cast<uint64_t>(v.AsInt64());
          break;
        case ValueType::kDouble:
          word = std::bit_cast<uint64_t>(v.AsDouble());
          break;
        default:
          word = dict_.Intern(v.AsString());
      }
    }
    out.words_.push_back(word);
    out.valid_.push_back(v.is_null() ? 0 : 1);
  }
  return out;
}

uint32_t Column::InternString(std::string_view v) {
  PCLEAN_CHECK(type_ == ValueType::kString);
  return dict_.Intern(v);
}

Column Column::SelectRows(const std::vector<size_t>& rows) const {
  Column out(type_);
  out.valid_.reserve(rows.size());
  switch (type_) {
    case ValueType::kInt64:
      out.ints_.reserve(rows.size());
      for (size_t r : rows) out.ints_.push_back(ints_[r]);
      break;
    case ValueType::kDouble:
      out.doubles_.reserve(rows.size());
      for (size_t r : rows) out.doubles_.push_back(doubles_[r]);
      break;
    case ValueType::kString:
      out.dict_ = dict_;
      out.codes_.reserve(rows.size());
      for (size_t r : rows) out.codes_.push_back(codes_[r]);
      break;
    case ValueType::kNull:
      PCLEAN_CHECK(false);
  }
  for (size_t r : rows) {
    out.valid_.push_back(valid_[r]);
    if (valid_[r] == 0) ++out.null_count_;
  }
  return out;
}

void Column::RecomputeNullCount() {
  size_t nulls = 0;
  for (uint8_t v : valid_) nulls += (v == 0) ? 1 : 0;
  null_count_ = nulls;
}

void Column::Reserve(size_t n) {
  valid_.reserve(n);
  switch (type_) {
    case ValueType::kInt64:
      ints_.reserve(n);
      break;
    case ValueType::kDouble:
      doubles_.reserve(n);
      break;
    case ValueType::kString:
      codes_.reserve(n);
      break;
    case ValueType::kNull:
      break;
  }
}

ColumnMemory Column::MemoryUsage() const {
  ColumnMemory m;
  m.payload_bytes = ints_.capacity() * sizeof(int64_t) +
                    doubles_.capacity() * sizeof(double) +
                    codes_.capacity() * sizeof(uint32_t) +
                    valid_.capacity() * sizeof(uint8_t);
  m.dictionary_bytes = dict_.arena_bytes();
  m.dictionary_entries = dict_.size();
  return m;
}

}  // namespace privateclean
