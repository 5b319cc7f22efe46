#ifndef PRIVATECLEAN_QUERY_SQL_EXPR_H_
#define PRIVATECLEAN_QUERY_SQL_EXPR_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "query/predicate.h"
#include "table/value.h"

namespace privateclean {

/// One WHERE leaf: a condition on a single attribute.
struct SqlCondition {
  enum class Kind {
    kCompare,  ///< attr <op> literal (=, !=, <, <=, >, >=).
    kIn,       ///< attr IN (literal, ...).
    kIsNull,   ///< attr IS [NOT] NULL.
  };

  std::string attribute;
  Kind kind = Kind::kCompare;
  CompareOp op = CompareOp::kEq;  ///< kCompare only.
  std::vector<Value> literals;    ///< kCompare: exactly one; kIn: one or more.
  bool is_not_null = false;       ///< kIsNull only: IS NOT NULL.
};

/// Boolean WHERE tree over SqlConditions, retained verbatim by ParseSql
/// so queries can be re-rendered and analyzed after parsing. AND/OR
/// nodes are flattened during construction (a child never repeats its
/// parent's kind), so `(a AND b) AND c` and `a AND b AND c` build the
/// same tree.
struct SqlExpr {
  enum class Kind { kCondition, kAnd, kOr, kNot };

  Kind kind = Kind::kCondition;
  SqlCondition condition;         ///< kCondition only.
  std::vector<SqlExpr> children;  ///< kAnd/kOr: two or more; kNot: one.

  static SqlExpr Leaf(SqlCondition condition);
  static SqlExpr Not(SqlExpr child);
  /// Build a conjunction/disjunction, splicing children of the same kind.
  static SqlExpr MakeAnd(std::vector<SqlExpr> children);
  static SqlExpr MakeOr(std::vector<SqlExpr> children);
};

/// Whether `v` satisfies one condition / a whole single-attribute tree.
/// Two-valued logic matching Predicate: NULL satisfies only `= NULL`,
/// `IS NULL`, and the complements (!=, NOT, IS NOT NULL) of conditions it
/// fails; ordering comparisons (<, <=, >, >=) are never satisfied by NULL.
bool SqlConditionMatches(const SqlCondition& cond, const Value& v);
bool SqlExprMatches(const SqlExpr& expr, const Value& v);

/// Distinct attributes referenced by the tree, in first-appearance order.
std::vector<std::string> SqlExprAttributes(const SqlExpr& expr);

/// The equivalent single-attribute Predicate of one leaf condition.
Predicate SqlConditionToPredicate(const SqlCondition& cond);

/// Collapses a tree referencing exactly one attribute to an equivalent
/// Predicate: leaves (and NOT-of-leaf) map to their native Predicate
/// forms; a general tree is kept as the predicate's tree() —
/// Matches evaluates it with SqlExprMatches, and CompiledPredicate
/// compiles it to the same typed kernels as a WHERE tree. This is what
/// routes every single-attribute WHERE — range predicates included —
/// through the bias-corrected estimators, which apply Matches to each
/// clean value (the paper's M_pred).
/// InvalidArgument if the tree references zero or several attributes.
Result<Predicate> CollapseSingleAttribute(const SqlExpr& expr);

}  // namespace privateclean

#endif  // PRIVATECLEAN_QUERY_SQL_EXPR_H_
