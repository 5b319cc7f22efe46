#include "cleaning/transform.h"

#include <map>

namespace privateclean {

ValueTransform::ValueTransform(std::string attribute,
                               std::function<Value(const Value&)> fn)
    : attribute_(std::move(attribute)), fn_(std::move(fn)) {}

std::string ValueTransform::name() const {
  return "transform(" + attribute_ + ")";
}

Status ValueTransform::Apply(Table* table) const {
  return RemapDistinctValues(
      table, attribute_,
      [&](const Value& v, const Domain&) { return fn_(v); });
}

ProjectionTransform::ProjectionTransform(
    std::vector<std::string> attributes,
    std::function<std::vector<Value>(const std::vector<Value>&)> fn)
    : attributes_(std::move(attributes)), fn_(std::move(fn)) {}

std::string ProjectionTransform::name() const {
  std::string joined;
  for (size_t i = 0; i < attributes_.size(); ++i) {
    if (i > 0) joined += ", ";
    joined += attributes_[i];
  }
  return "transform(" + joined + ")";
}

Status ProjectionTransform::Apply(Table* table) const {
  if (table == nullptr) {
    return Status::InvalidArgument("table must not be null");
  }
  if (attributes_.empty()) {
    return Status::InvalidArgument("projection must be non-empty");
  }
  std::vector<Column*> cols;
  cols.reserve(attributes_.size());
  for (const std::string& attr : attributes_) {
    PCLEAN_RETURN_NOT_OK(ValidateDiscreteAttribute(*table, attr));
    PCLEAN_ASSIGN_OR_RETURN(Column * col, table->MutableColumnByName(attr));
    cols.push_back(col);
  }
  // Evaluate the UDF once per distinct projected tuple (std::map keyed by
  // the Value tuple's lexicographic order).
  std::map<std::vector<Value>, std::vector<Value>> cache;
  size_t rows = table->num_rows();
  for (size_t r = 0; r < rows; ++r) {
    std::vector<Value> tuple;
    tuple.reserve(cols.size());
    for (Column* col : cols) tuple.push_back(col->ValueAt(r));
    auto it = cache.find(tuple);
    if (it == cache.end()) {
      std::vector<Value> out = fn_(tuple);
      if (out.size() != tuple.size()) {
        return Status::InvalidArgument(
            "projection transform must return a tuple of the same arity");
      }
      it = cache.emplace(std::move(tuple), std::move(out)).first;
    }
    const std::vector<Value>& replacement = it->second;
    for (size_t c = 0; c < cols.size(); ++c) {
      PCLEAN_RETURN_NOT_OK(cols[c]->SetValue(r, replacement[c]));
    }
  }
  return Status::OK();
}

}  // namespace privateclean
