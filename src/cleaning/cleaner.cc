#include "cleaning/cleaner.h"

#include <numeric>
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
  PCLEAN_ASSIGN_OR_RETURN(
      Domain domain,
      Domain::FromColumn(*table, attribute, /*include_null=*/true));
  PCLEAN_ASSIGN_OR_RETURN(Column * col, table->MutableColumnByName(attribute));
  std::vector<std::optional<Value>> mapped;
  mapped.reserve(domain.size());
  for (size_t i = 0; i < domain.size(); ++i) {
    mapped.push_back(fn(domain.value(i), domain));
    const std::optional<Value>& to = mapped.back();
    if (to.has_value() && !to->is_null() && to->type() != col->type()) {
      return Status::InvalidArgument(
          std::string("cannot set ") + ValueTypeToString(to->type()) +
          " value in " + ValueTypeToString(col->type()) + " column");
    }
  }
  if (col->type() != ValueType::kString) {
    for (size_t r = 0; r < col->size(); ++r) {
      // A NaN equals no domain entry, so no mapping applies to it.
      auto idx = domain.IndexOf(col->ValueAt(r));
      if (idx.ok() && mapped[*idx].has_value()) {
        PCLEAN_RETURN_NOT_OK(col->SetValue(r, *mapped[*idx]));
      }
    }
    return Status::OK();
  }
  // Per dictionary slot (the slot past the dictionary is null), the code
  // of its value's result; then the rows are one integer gather.
  const uint32_t null_slot = static_cast<uint32_t>(col->dictionary().size());
  std::vector<uint32_t> slot_code(null_slot + 1);
  std::iota(slot_code.begin(), slot_code.end() - 1, 0u);
  slot_code[null_slot] = kNullCode;
  for (size_t i = 0; i < domain.size(); ++i) {
    if (!mapped[i].has_value()) continue;
    const Value& from = domain.value(i);
    const uint32_t slot = from.is_null()
                              ? null_slot
                              : col->dictionary().Find(from.AsString());
    slot_code[slot] = mapped[i]->is_null()
                          ? kNullCode
                          : col->InternString(mapped[i]->AsString());
  }
  std::vector<uint32_t>& codes = *col->mutable_codes();
  std::vector<uint8_t>& valid = *col->mutable_validity();
  for (size_t r = 0; r < codes.size(); ++r) {
    codes[r] = slot_code[codes[r] == kNullCode ? null_slot : codes[r]];
    valid[r] = codes[r] == kNullCode ? 0 : 1;
  }
  col->RecomputeNullCount();
  return Status::OK();
}

}  // namespace privateclean
