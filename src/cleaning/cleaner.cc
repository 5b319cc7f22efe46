#include "cleaning/cleaner.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace privateclean {

const char* CleanerKindToString(CleanerKind kind) {
  switch (kind) {
    case CleanerKind::kExtract:
      return "extract";
    case CleanerKind::kTransform:
      return "transform";
    case CleanerKind::kMerge:
      return "merge";
  }
  return "unknown";
}

Status ValidateDiscreteAttribute(const Table& table,
                                 const std::string& attribute) {
  PCLEAN_ASSIGN_OR_RETURN(Field field,
                          table.schema().FieldByName(attribute));
  if (field.kind != AttributeKind::kDiscrete) {
    return Status::InvalidArgument(
        "cleaning operations are restricted to discrete attributes; '" +
        attribute + "' is numerical");
  }
  return Status::OK();
}

Status RemapDistinctValues(
    Table* table, const std::string& attribute,
    const std::function<std::optional<Value>(const Value&, const Domain&)>&
        fn) {
  if (table == nullptr) {
    return Status::InvalidArgument("table must not be null");
  }
  PCLEAN_RETURN_NOT_OK(ValidateDiscreteAttribute(*table, attribute));
  PCLEAN_ASSIGN_OR_RETURN(Column * col, table->MutableColumnByName(attribute));
  const ColumnCodes codes(*col);
  const Domain domain = Domain::FromCodes(codes, /*include_null=*/true);
  std::vector<Value> results;
  std::vector<uint32_t> result_of(domain.size(), kNullCode);
  for (size_t i = 0; i < domain.size(); ++i) {
    std::optional<Value> to = fn(domain.value(i), domain);
    if (!to.has_value()) continue;
    result_of[i] = static_cast<uint32_t>(results.size());
    results.push_back(std::move(*to));
  }
  // Results first, in domain order: every type is checked before
  // anything is interned or written, and new strings are interned in that
  // order.
  PCLEAN_RETURN_NOT_OK(col->PrepareValues(results).status());
  // Per slot, the value its rows take: its result, or else its own value
  // (a NaN equals no domain entry, so no result applies to it). A kept
  // double zero keeps each row's sign: -0.0 and +0.0 share the slot.
  const std::vector<uint32_t> slot_index = codes.IndicesIn(domain);
  std::vector<Value> slot_values(codes.num_slots());
  std::vector<uint8_t> keeps_sign(codes.num_slots(), 0);
  for (uint32_t slot = 0; slot < codes.num_slots(); ++slot) {
    const uint32_t i = slot_index[slot];
    if (i != kNullCode && result_of[i] != kNullCode) {
      slot_values[slot] = results[result_of[i]];
    } else {
      slot_values[slot] = codes.ValueOf(slot);
      keeps_sign[slot] = slot_values[slot] == Value(0.0);
    }
  }
  PCLEAN_ASSIGN_OR_RETURN(PreparedValues prepared,
                          col->PrepareValues(slot_values));
  const uint32_t* row_codes = codes.codes();
  const uint32_t null_slot = codes.null_slot();
  const uint64_t* slot_words = prepared.words();
  const uint8_t* slot_valid = prepared.validity();
  uint8_t* valid = col->mutable_validity()->data();
  // A string column's codes are the words being written: row r's slot is
  // read before row r is written.
  col->VisitWords([&](auto* words) {
    using Word = std::remove_pointer_t<decltype(words)>;
    for (size_t r = 0, rows = codes.size(); r < rows; ++r) {
      const uint32_t slot = std::min(row_codes[r], null_slot);
      Word word = PreparedValues::As<Word>(slot_words[slot]);
      if constexpr (std::is_same_v<Word, double>) {
        if (keeps_sign[slot]) word = std::copysign(word, words[r]);
      }
      words[r] = word;
      valid[r] = slot_valid[slot];
    }
  });
  col->RecomputeNullCount();
  return Status::OK();
}

}  // namespace privateclean
