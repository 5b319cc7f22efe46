#ifndef PRIVATECLEAN_QUERY_PREDICATE_H_
#define PRIVATECLEAN_QUERY_PREDICATE_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "table/domain.h"
#include "table/table.h"

namespace privateclean {

/// Comparison operator of a SQL condition. kEq/kNe exist so the parser
/// can name every operator uniformly; Predicate::Compare normalizes them
/// to Equals / Equals().Negate().
enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

struct SqlExpr;

/// SQL spelling: "=", "!=", "<", "<=", ">", ">=".
const char* CompareOpToString(CompareOp op);

/// Whether `v op bound` holds. The ordering operators compare numerics
/// with int64→double promotion and strings lexicographically; NULL and
/// mixed string/numeric operands satisfy no ordering operator. kEq/kNe
/// use ValuesEqual (table/value.h), so Value(3) equals Value(3.0) but not
/// Value(3.5), matching Predicate::Equals.
bool ComparesTrue(CompareOp op, const Value& v, const Value& bound);

/// Predicate over a single discrete attribute (the paper's `cond(d)`,
/// Section 3.2.2). Every deterministic predicate is equivalent to
/// membership in a subset of the attribute's distinct values, which is
/// exactly how the bias analysis uses it: `MatchingValues(domain)` yields
/// the paper's M_pred, whose size is the distinct-value selectivity l'.
///
/// Construction:
///   Predicate::Equals("major", "EECS")
///   Predicate::In("country", {"FR", "DE", "IT"})
///   Predicate::IsNotNull("sensor_id")
///   Predicate::Udf("country", [](const Value& v) { return IsEurope(v); })
/// plus `Negate()` for complements (used by the SUM estimator, §5.5).
/// CollapseSingleAttribute (query/sql_expr.h) builds one from a
/// single-attribute WHERE tree.
class Predicate {
 public:
  /// d == value under ValuesEqual (an int64 and a double compare by
  /// value). A null `value` matches null entries.
  static Predicate Equals(std::string attribute, Value value);

  /// d ∈ values, under the same equality.
  static Predicate In(std::string attribute, std::vector<Value> values);

  /// d is null / d is not null.
  static Predicate IsNull(std::string attribute);
  static Predicate IsNotNull(std::string attribute);

  /// d op bound — an ordering comparison (SQL `score >= 3`). NULL never
  /// satisfies an ordering comparison. kEq and kNe inputs are normalized
  /// to Equals / Equals().Negate().
  static Predicate Compare(std::string attribute, CompareOp op, Value bound);

  /// Arbitrary deterministic condition. The function must be pure: it is
  /// evaluated at most once per distinct value per shard, not once per
  /// row, and may be called concurrently from evaluation shards.
  static Predicate Udf(std::string attribute,
                       std::function<bool(const Value&)> fn);

  /// Logical complement of this predicate.
  Predicate Negate() const;

  /// The discrete attribute this predicate conditions on.
  const std::string& attribute() const { return attribute_; }

  bool negated() const { return negated_; }

  /// Whether a single value satisfies the predicate.
  bool Matches(const Value& v) const;

  /// Row mask over `table` (1 = predicate true). Rows are sharded per
  /// `exec` (common/thread_pool.h); the mask is independent of the
  /// thread count since the predicate is value-deterministic.
  Result<std::vector<uint8_t>> Evaluate(const Table& table,
                                        const ExecutionOptions& exec = {}) const;

  /// The subset of `domain` that satisfies the predicate (paper's M_pred).
  std::vector<Value> MatchingValues(const Domain& domain) const;

  /// Number of rows in `table` satisfying the predicate.
  Result<size_t> CountMatches(const Table& table,
                              const ExecutionOptions& exec = {}) const;

  /// --- Introspection for the vectorized compiler (query/vectorized.h) --

  /// Membership predicate (Equals/In/IsNull): d ∈ membership_values().
  bool is_membership() const { return mode_ == Mode::kIn; }
  const std::unordered_set<Value, ValueHash>& membership_values() const {
    return values_;
  }

  /// Ordering comparison: d comparison_op() comparison_bound().
  bool is_comparison() const { return mode_ == Mode::kCompare; }
  CompareOp comparison_op() const { return compare_op_; }
  const Value& comparison_bound() const { return compare_bound_; }

  /// The single-attribute WHERE tree this predicate was collapsed from
  /// (CollapseSingleAttribute, query/sql_expr.h), before negation;
  /// nullptr for every other form.
  const SqlExpr* tree() const { return tree_.get(); }

 private:
  enum class Mode { kIn, kCompare, kUdf, kTree };

  friend Result<Predicate> CollapseSingleAttribute(const SqlExpr& expr);

  Predicate(std::string attribute, Mode mode)
      : attribute_(std::move(attribute)), mode_(mode) {}

  bool MatchesIgnoringNegation(const Value& v) const;

  std::string attribute_;
  Mode mode_;
  bool negated_ = false;
  std::unordered_set<Value, ValueHash> values_;
  CompareOp compare_op_ = CompareOp::kEq;
  Value compare_bound_;
  std::function<bool(const Value&)> fn_;
  std::shared_ptr<const SqlExpr> tree_;
};

}  // namespace privateclean

#endif  // PRIVATECLEAN_QUERY_PREDICATE_H_
