#include "table/domain.h"

#include <algorithm>
#include <cmath>

namespace privateclean {

namespace {

/// Codes of an int64/double column: first-appearance order under Value
/// equality, kNullCode for null rows.
template <typename T>
void AssignCodes(const std::vector<T>& data, const std::vector<uint8_t>& valid,
                 std::vector<uint32_t>* codes, std::vector<size_t>* first_row) {
  std::unordered_map<T, uint32_t> index;
  codes->resize(data.size());
  for (size_t r = 0; r < data.size(); ++r) {
    uint32_t code = kNullCode;
    if (valid[r] != 0) {
      code = static_cast<uint32_t>(first_row->size());
      // A NaN equals nothing, so it never finds an earlier row's code.
      if (data[r] == data[r]) code = index.emplace(data[r], code).first->second;
      if (code == first_row->size()) first_row->push_back(r);
    }
    (*codes)[r] = code;
  }
}

}  // namespace

ColumnCodes::ColumnCodes(const Column& column) : column_(column) {
  switch (column.type()) {
    case ValueType::kInt64:
      AssignCodes(column.ints(), column.validity(), &assigned_, &first_row_);
      break;
    case ValueType::kDouble:
      AssignCodes(column.doubles(), column.validity(), &assigned_,
                  &first_row_);
      break;
    default:
      codes_ = column.codes().data();
      null_slot_ = static_cast<uint32_t>(column.dictionary().size());
      return;
  }
  codes_ = assigned_.data();
  null_slot_ = static_cast<uint32_t>(first_row_.size());
}

Value ColumnCodes::ValueOf(uint32_t slot) const {
  if (slot == null_slot_) return Value::Null();
  if (column_.type() == ValueType::kString) {
    return Value(std::string(column_.dictionary().At(slot)));
  }
  return column_.ValueAt(first_row_[slot]);
}

std::vector<uint32_t> ColumnCodes::IndicesIn(const Domain& domain) const {
  std::vector<uint32_t> indices(num_slots(), kNullCode);
  for (uint32_t slot = 0; slot < num_slots(); ++slot) {
    if (auto i = domain.IndexOf(ValueOf(slot)); i.ok()) {
      indices[slot] = static_cast<uint32_t>(*i);
    }
  }
  return indices;
}

Result<Domain> Domain::FromColumn(const Table& table,
                                  const std::string& field, bool include_null,
                                  const ExecutionOptions& exec) {
  PCLEAN_ASSIGN_OR_RETURN(const Column* col, table.ColumnByName(field));
  return FromCodes(ColumnCodes(*col), include_null, exec);
}

Domain Domain::FromCodes(const ColumnCodes& codes, bool include_null,
                         const ExecutionOptions& exec) {
  // Per-slot frequencies by vector indexing (no per-row hashing), with
  // the slots recorded in row first-appearance order. Each worker counts
  // one contiguous row range into tables it allocates and hands them
  // over when its range ends.
  const uint32_t* row_codes = codes.codes();
  const uint32_t null_slot = codes.null_slot();
  const size_t rows = codes.size();
  const size_t workers =
      std::min(exec.EffectiveThreads(), ShardCountForRows(rows));
  struct SlotCounts {
    std::vector<size_t> counts;
    std::vector<uint32_t> order;  ///< First-appearance order.
  };
  std::vector<SlotCounts> partials(workers);
  // Worker bodies never fail.
  (void)ParallelFor(
      rows, workers, exec, [&](size_t worker, size_t begin, size_t end) {
        std::vector<size_t> counts(codes.num_slots(), 0);
        std::vector<uint32_t> order;
        for (size_t r = begin; r < end; ++r) {
          const uint32_t slot = std::min(row_codes[r], null_slot);
          if (slot == null_slot && !include_null) continue;
          if (counts[slot]++ == 0) order.push_back(slot);
        }
        partials[worker] = SlotCounts{std::move(counts), std::move(order)};
        return Status::OK();
      });
  // Worker order is row order, so the first worker to see a slot saw its
  // first row.
  std::vector<size_t> totals(codes.num_slots(), 0);
  std::vector<uint32_t> order;
  for (const SlotCounts& part : partials) {
    for (uint32_t slot : part.order) {
      if (totals[slot] == 0) order.push_back(slot);
      totals[slot] += part.counts[slot];
    }
  }
  Domain d;
  for (uint32_t slot : order) d.AddCount(codes.ValueOf(slot), totals[slot]);
  return d;
}

Domain Domain::FromValues(const std::vector<Value>& values) {
  Domain d;
  for (const Value& v : values) d.Add(v);
  return d;
}

Domain Domain::FromValueCounts(const std::vector<Value>& values,
                               const std::vector<size_t>& counts) {
  Domain d;
  for (size_t i = 0; i < values.size() && i < counts.size(); ++i) {
    d.AddCount(values[i], counts[i]);
  }
  return d;
}

Result<size_t> Domain::IndexOf(const Value& v) const {
  auto it = index_.find(v);
  if (it == index_.end()) {
    return Status::NotFound("value '" + v.ToString() + "' not in domain");
  }
  return it->second;
}

void Domain::Add(const Value& v) { AddCount(v, 1); }

void Domain::AddCount(const Value& v, size_t count) {
  if (count == 0) return;
  total_ += count;
  if (v.type() == ValueType::kDouble && std::isnan(v.AsDouble())) {
    // A NaN equals nothing, so it is a member of its own that no lookup
    // finds; kept out of index_, where every NaN would share one bucket
    // chain and k of them would cost O(k^2).
    values_.push_back(v);
    freqs_.push_back(count);
    return;
  }
  auto [it, inserted] = index_.emplace(v, values_.size());
  if (inserted) {
    values_.push_back(v);
    freqs_.push_back(count);
  } else {
    freqs_[it->second] += count;
  }
}

}  // namespace privateclean
