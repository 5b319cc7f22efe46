#include "cleaning/merge.h"

namespace privateclean {

FindReplace::FindReplace(
    std::string attribute,
    std::unordered_map<Value, Value, ValueHash> replacements)
    : attribute_(std::move(attribute)),
      replacements_(std::move(replacements)) {}

FindReplace FindReplace::Single(std::string attribute, Value from,
                                Value to) {
  std::unordered_map<Value, Value, ValueHash> map;
  map.emplace(std::move(from), std::move(to));
  return FindReplace(std::move(attribute), std::move(map));
}

std::string FindReplace::name() const {
  return "find_replace(" + attribute_ + ", " +
         std::to_string(replacements_.size()) + " rules)";
}

Status FindReplace::Apply(Table* table) const {
  return RemapDistinctValues(
      table, attribute_,
      [&](const Value& v, const Domain&) -> std::optional<Value> {
        auto it = replacements_.find(v);
        if (it == replacements_.end()) return std::nullopt;
        return it->second;
      });
}

DomainMerge::DomainMerge(std::string attribute,
                         std::function<Value(const Value&, const Domain&)> fn)
    : attribute_(std::move(attribute)), fn_(std::move(fn)) {}

std::string DomainMerge::name() const {
  return "domain_merge(" + attribute_ + ")";
}

Status DomainMerge::Apply(Table* table) const {
  // One UDF evaluation per distinct value; the domain argument is the
  // pre-merge domain for every evaluation (simultaneous semantics).
  return RemapDistinctValues(table, attribute_, fn_);
}

MergeToNull::MergeToNull(std::string attribute,
                         std::function<bool(const Value&)> is_spurious)
    : attribute_(std::move(attribute)),
      is_spurious_(std::move(is_spurious)) {}

std::string MergeToNull::name() const {
  return "merge_to_null(" + attribute_ + ")";
}

Status MergeToNull::Apply(Table* table) const {
  return RemapDistinctValues(
      table, attribute_,
      [&](const Value& v, const Domain&) -> std::optional<Value> {
        if (!is_spurious_(v)) return std::nullopt;
        return Value::Null();
      });
}

}  // namespace privateclean
