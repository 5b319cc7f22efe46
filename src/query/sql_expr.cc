#include "query/sql_expr.h"

#include <algorithm>
#include <memory>

namespace privateclean {

SqlExpr SqlExpr::Leaf(SqlCondition condition) {
  SqlExpr e;
  e.kind = Kind::kCondition;
  e.condition = std::move(condition);
  return e;
}

SqlExpr SqlExpr::Not(SqlExpr child) {
  SqlExpr e;
  e.kind = Kind::kNot;
  e.children.push_back(std::move(child));
  return e;
}

namespace {

SqlExpr MakeNary(SqlExpr::Kind kind, std::vector<SqlExpr> children) {
  if (children.size() == 1) return std::move(children.front());
  SqlExpr e;
  e.kind = kind;
  for (SqlExpr& child : children) {
    if (child.kind == kind) {
      // Splice same-kind children so associativity never shows in the
      // tree shape: (a AND b) AND c == a AND b AND c.
      for (SqlExpr& grandchild : child.children) {
        e.children.push_back(std::move(grandchild));
      }
    } else {
      e.children.push_back(std::move(child));
    }
  }
  return e;
}

}  // namespace

SqlExpr SqlExpr::MakeAnd(std::vector<SqlExpr> children) {
  return MakeNary(Kind::kAnd, std::move(children));
}

SqlExpr SqlExpr::MakeOr(std::vector<SqlExpr> children) {
  return MakeNary(Kind::kOr, std::move(children));
}

bool SqlConditionMatches(const SqlCondition& cond, const Value& v) {
  switch (cond.kind) {
    case SqlCondition::Kind::kCompare:
      return ComparesTrue(cond.op, v, cond.literals.front());
    case SqlCondition::Kind::kIn:
      return std::any_of(cond.literals.begin(), cond.literals.end(),
                         [&](const Value& lit) { return ValuesEqual(v, lit); });
    case SqlCondition::Kind::kIsNull:
      return cond.is_not_null ? !v.is_null() : v.is_null();
  }
  return false;
}

bool SqlExprMatches(const SqlExpr& expr, const Value& v) {
  switch (expr.kind) {
    case SqlExpr::Kind::kCondition:
      return SqlConditionMatches(expr.condition, v);
    case SqlExpr::Kind::kNot:
      return !SqlExprMatches(expr.children.front(), v);
    case SqlExpr::Kind::kAnd:
      return std::all_of(expr.children.begin(), expr.children.end(),
                         [&](const SqlExpr& c) { return SqlExprMatches(c, v); });
    case SqlExpr::Kind::kOr:
      return std::any_of(expr.children.begin(), expr.children.end(),
                         [&](const SqlExpr& c) { return SqlExprMatches(c, v); });
  }
  return false;
}

namespace {

void CollectAttributes(const SqlExpr& expr, std::vector<std::string>* out) {
  if (expr.kind == SqlExpr::Kind::kCondition) {
    const std::string& attr = expr.condition.attribute;
    if (std::find(out->begin(), out->end(), attr) == out->end()) {
      out->push_back(attr);
    }
    return;
  }
  for (const SqlExpr& child : expr.children) CollectAttributes(child, out);
}

}  // namespace

std::vector<std::string> SqlExprAttributes(const SqlExpr& expr) {
  std::vector<std::string> out;
  CollectAttributes(expr, &out);
  return out;
}

Predicate SqlConditionToPredicate(const SqlCondition& cond) {
  switch (cond.kind) {
    case SqlCondition::Kind::kCompare:
      return Predicate::Compare(cond.attribute, cond.op, cond.literals.front());
    case SqlCondition::Kind::kIn:
      return Predicate::In(cond.attribute, cond.literals);
    case SqlCondition::Kind::kIsNull:
      return cond.is_not_null ? Predicate::IsNotNull(cond.attribute)
                              : Predicate::IsNull(cond.attribute);
  }
  return Predicate::Udf(cond.attribute, [](const Value&) { return false; });
}

Result<Predicate> CollapseSingleAttribute(const SqlExpr& expr) {
  std::vector<std::string> attrs = SqlExprAttributes(expr);
  if (attrs.size() != 1) {
    return Status::InvalidArgument(
        "cannot collapse a WHERE tree referencing " +
        std::to_string(attrs.size()) + " attributes to one predicate");
  }
  if (expr.kind == SqlExpr::Kind::kCondition) {
    return SqlConditionToPredicate(expr.condition);
  }
  if (expr.kind == SqlExpr::Kind::kNot &&
      expr.children.front().kind == SqlExpr::Kind::kCondition) {
    return SqlConditionToPredicate(expr.children.front().condition).Negate();
  }
  Predicate p(attrs.front(), Predicate::Mode::kTree);
  p.tree_ = std::make_shared<const SqlExpr>(expr);
  return p;
}

}  // namespace privateclean
