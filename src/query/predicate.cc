#include "query/predicate.h"

#include <optional>

#include "query/sql_expr.h"
#include "query/vectorized.h"

namespace privateclean {

const char* CompareOpToString(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

bool ComparesTrue(CompareOp op, const Value& v, const Value& bound) {
  if (op == CompareOp::kEq) return ValuesEqual(v, bound);
  if (op == CompareOp::kNe) return !ValuesEqual(v, bound);
  const ValueType vt = v.type();
  const ValueType bt = bound.type();
  const bool v_numeric = vt == ValueType::kInt64 || vt == ValueType::kDouble;
  const bool b_numeric = bt == ValueType::kInt64 || bt == ValueType::kDouble;
  int cmp = 0;
  if (v_numeric && b_numeric) {
    if (vt == ValueType::kInt64 && bt == ValueType::kInt64) {
      int64_t a = v.AsInt64();
      int64_t b = bound.AsInt64();
      cmp = a < b ? -1 : (a > b ? 1 : 0);
    } else {
      double a = vt == ValueType::kInt64 ? static_cast<double>(v.AsInt64())
                                         : v.AsDouble();
      double b = bt == ValueType::kInt64 ? static_cast<double>(bound.AsInt64())
                                         : bound.AsDouble();
      cmp = a < b ? -1 : (a > b ? 1 : 0);
    }
  } else if (vt == ValueType::kString && bt == ValueType::kString) {
    int c = v.AsString().compare(bound.AsString());
    cmp = c < 0 ? -1 : (c > 0 ? 1 : 0);
  } else {
    // NULL or mixed string/numeric operands: no defined order.
    return false;
  }
  switch (op) {
    case CompareOp::kLt:
      return cmp < 0;
    case CompareOp::kLe:
      return cmp <= 0;
    case CompareOp::kGt:
      return cmp > 0;
    case CompareOp::kGe:
      return cmp >= 0;
    default:
      return false;  // kEq/kNe handled above.
  }
}

Predicate Predicate::Equals(std::string attribute, Value value) {
  Predicate p(std::move(attribute), Mode::kIn);
  p.values_.insert(std::move(value));
  return p;
}

Predicate Predicate::In(std::string attribute, std::vector<Value> values) {
  Predicate p(std::move(attribute), Mode::kIn);
  for (auto& v : values) p.values_.insert(std::move(v));
  return p;
}

Predicate Predicate::IsNull(std::string attribute) {
  return Equals(std::move(attribute), Value::Null());
}

Predicate Predicate::IsNotNull(std::string attribute) {
  return IsNull(std::move(attribute)).Negate();
}

Predicate Predicate::Compare(std::string attribute, CompareOp op, Value bound) {
  if (op == CompareOp::kEq) {
    return Equals(std::move(attribute), std::move(bound));
  }
  if (op == CompareOp::kNe) {
    return Equals(std::move(attribute), std::move(bound)).Negate();
  }
  Predicate p(std::move(attribute), Mode::kCompare);
  p.compare_op_ = op;
  p.compare_bound_ = std::move(bound);
  return p;
}

Predicate Predicate::Udf(std::string attribute,
                         std::function<bool(const Value&)> fn) {
  Predicate p(std::move(attribute), Mode::kUdf);
  p.fn_ = std::move(fn);
  return p;
}

Predicate Predicate::Negate() const {
  Predicate p = *this;
  p.negated_ = !p.negated_;
  return p;
}

namespace {

/// Whether `set` holds a member ValuesEqual to `v`. Same-typed members
/// are found by hash; a numeric `v` equals at most one member of the
/// other numeric type, the one its exact conversion names.
bool SetContains(const std::unordered_set<Value, ValueHash>& set,
                 const Value& v) {
  if (set.count(v) > 0) return true;
  if (v.type() == ValueType::kInt64) {
    const std::optional<double> d = ExactDouble(v.AsInt64());
    return d.has_value() && set.count(Value(*d)) > 0;
  }
  if (v.type() == ValueType::kDouble) {
    const std::optional<int64_t> i = ExactInt64(v.AsDouble());
    return i.has_value() && set.count(Value(*i)) > 0;
  }
  return false;
}

}  // namespace

bool Predicate::MatchesIgnoringNegation(const Value& v) const {
  if (mode_ == Mode::kIn) return SetContains(values_, v);
  if (mode_ == Mode::kCompare) return ComparesTrue(compare_op_, v, compare_bound_);
  if (mode_ == Mode::kTree) return SqlExprMatches(*tree_, v);
  return fn_(v);
}

bool Predicate::Matches(const Value& v) const {
  return MatchesIgnoringNegation(v) != negated_;
}

Result<std::vector<uint8_t>> Predicate::Evaluate(
    const Table& table, const ExecutionOptions& exec) const {
  // One engine for every mask: compile (string columns get the
  // dictionary match-table gather, numeric columns typed kernels, or a
  // memoized boxed loop for a caller's UDF) and run batched through the
  // deterministic shards. See query/vectorized.h.
  PCLEAN_ASSIGN_OR_RETURN(const Column* col, table.ColumnByName(attribute_));
  PCLEAN_ASSIGN_OR_RETURN(CompiledPredicate compiled,
                          CompiledPredicate::Compile(table, *this));
  return compiled.EvaluateAll(col->size(), exec);
}

std::vector<Value> Predicate::MatchingValues(const Domain& domain) const {
  std::vector<Value> out;
  for (size_t i = 0; i < domain.size(); ++i) {
    if (Matches(domain.value(i))) out.push_back(domain.value(i));
  }
  return out;
}

Result<size_t> Predicate::CountMatches(const Table& table,
                                       const ExecutionOptions& exec) const {
  PCLEAN_ASSIGN_OR_RETURN(auto mask, Evaluate(table, exec));
  size_t n = 0;
  for (uint8_t m : mask) n += m;
  return n;
}

}  // namespace privateclean
