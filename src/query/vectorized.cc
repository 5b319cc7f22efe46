#include "query/vectorized.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <string>
#include <unordered_map>

#include "query/sql_expr.h"

namespace privateclean {

struct CompiledPredicate::Node {
  enum class Kind {
    kConst,         ///< Every row matches (or none).
    kStringLookup,  ///< Code-indexed match table over the dictionary.
    kIntCompare,    ///< Typed ordering compare over int64 data.
    kDoubleCompare, ///< Typed ordering compare over double data.
    kIntIn,         ///< Typed membership over int64 data.
    kDoubleIn,      ///< Typed membership over double data.
    kBoxed,         ///< Caller UDF on a numeric column: per-row boxed
                    ///< Matches with a per-batch memo.
    kNot,
    kAnd,
    kOr,
  };

  Kind kind = Kind::kConst;
  bool const_value = false;
  /// Complement the kernel's raw result (folds Predicate::negated() for
  /// the typed numeric kernels; NULL rows fail the raw kernel, so under
  /// negation they match — same two-valued logic as the boxed path).
  bool negate = false;

  // kStringLookup.
  const uint32_t* codes = nullptr;
  uint32_t null_slot = 0;
  std::vector<uint8_t> match;

  // Typed numeric kernels.
  const int64_t* ints = nullptr;
  const double* doubles = nullptr;
  const uint8_t* validity = nullptr;
  CompareOp op = CompareOp::kLt;
  int64_t int_bound = 0;
  double double_bound = 0.0;
  /// Int column compared against a non-integer-typed (double) bound:
  /// promote each element, matching ComparesTrue.
  bool promote_ints = false;
  std::vector<int64_t> int_set;
  std::vector<double> double_set;
  bool null_matches = false;

  // kBoxed.
  const Column* column = nullptr;
  std::optional<Predicate> boxed;

  std::vector<std::shared_ptr<const Node>> children;
};

namespace {

/// The row accessors of CompiledPredicate::EvalNode.
struct RowRange {
  size_t begin;
  size_t operator()(size_t i) const { return begin + i; }
};
struct RowList {
  const uint32_t* rows;
  size_t operator()(size_t i) const { return rows[i]; }
};

template <typename T, typename RowAt, typename Cmp>
void CompareLoop(const T* data, const uint8_t* validity, T bound,
                 RowAt row, size_t count, uint8_t* mask, Cmp cmp) {
  for (size_t i = 0; i < count; ++i) {
    size_t r = row(i);
    mask[i] = (validity[r] != 0 && cmp(data[r], bound)) ? 1 : 0;
  }
}

template <typename T, typename RowAt>
void DispatchCompare(const T* data, const uint8_t* validity, T bound,
                     CompareOp op, RowAt row, size_t count, uint8_t* mask) {
  switch (op) {
    case CompareOp::kLt:
      CompareLoop(data, validity, bound, row, count, mask,
                  [](T a, T b) { return a < b; });
      break;
    case CompareOp::kLe:
      CompareLoop(data, validity, bound, row, count, mask,
                  [](T a, T b) { return a <= b; });
      break;
    case CompareOp::kGt:
      CompareLoop(data, validity, bound, row, count, mask,
                  [](T a, T b) { return a > b; });
      break;
    case CompareOp::kGe:
      CompareLoop(data, validity, bound, row, count, mask,
                  [](T a, T b) { return a >= b; });
      break;
    default:
      // kEq/kNe never reach a compare node (normalized to membership).
      std::memset(mask, 0, count);
      break;
  }
}

template <typename T, typename RowAt>
void MembershipLoop(const T* data, const uint8_t* validity,
                    const std::vector<T>& set, bool null_matches,
                    RowAt row, size_t count, uint8_t* mask) {
  for (size_t i = 0; i < count; ++i) {
    size_t r = row(i);
    if (validity[r] == 0) {
      mask[i] = null_matches ? 1 : 0;
      continue;
    }
    // Literal sets are tiny (a handful of IN values); a linear scan
    // beats hashing.
    uint8_t m = 0;
    for (const T& v : set) {
      if (data[r] == v) {
        m = 1;
        break;
      }
    }
    mask[i] = m;
  }
}

}  // namespace

CompiledPredicate CompiledPredicate::True() { return CompiledPredicate(); }

Result<CompiledPredicate> CompiledPredicate::Compile(
    const Table& table, const Predicate& predicate) {
  PCLEAN_ASSIGN_OR_RETURN(const Column* col,
                          table.ColumnByName(predicate.attribute()));
  auto node = std::make_shared<Node>();
  if (col->type() == ValueType::kString) {
    // One boxed call per distinct value; negation is baked into the
    // match table.
    const StringDictionary& dict = col->dictionary();
    node->kind = Node::Kind::kStringLookup;
    node->codes = col->codes().data();
    node->null_slot = static_cast<uint32_t>(dict.size());
    node->match.assign(dict.size() + 1, 0);
    for (uint32_t c = 0; c < dict.size(); ++c) {
      node->match[c] =
          predicate.Matches(Value(std::string(dict.At(c)))) ? 1 : 0;
    }
    node->match[dict.size()] = predicate.Matches(Value::Null()) ? 1 : 0;
    return CompiledPredicate(std::move(node));
  }

  if (const SqlExpr* tree = predicate.tree(); tree != nullptr) {
    // A collapsed WHERE tree compiles to the same typed kernels as the
    // tree itself; negation wraps it in a NOT node.
    PCLEAN_ASSIGN_OR_RETURN(CompiledPredicate compiled, Compile(table, *tree));
    if (!predicate.negated()) return compiled;
    node->kind = Node::Kind::kNot;
    node->children.push_back(std::move(compiled.root_));
    return CompiledPredicate(std::move(node));
  }

  const bool is_int = col->type() == ValueType::kInt64;
  node->validity = col->validity().data();
  node->negate = predicate.negated();
  if (predicate.is_comparison()) {
    const Value& bound = predicate.comparison_bound();
    const ValueType bt = bound.type();
    if (bt != ValueType::kInt64 && bt != ValueType::kDouble) {
      // NULL or string bound: no row of a numeric column has a defined
      // order against it (ComparesTrue is false everywhere).
      node->kind = Node::Kind::kConst;
      node->const_value = predicate.negated();
      node->negate = false;
      return CompiledPredicate(std::move(node));
    }
    node->op = predicate.comparison_op();
    if (is_int) {
      if (bt == ValueType::kInt64) {
        node->kind = Node::Kind::kIntCompare;
        node->ints = col->ints().data();
        node->int_bound = bound.AsInt64();
      } else {
        node->kind = Node::Kind::kIntCompare;
        node->ints = col->ints().data();
        node->promote_ints = true;
        node->double_bound = bound.AsDouble();
      }
    } else {
      node->kind = Node::Kind::kDoubleCompare;
      node->doubles = col->doubles().data();
      node->double_bound = bt == ValueType::kInt64
                               ? static_cast<double>(bound.AsInt64())
                               : bound.AsDouble();
    }
    return CompiledPredicate(std::move(node));
  }
  if (predicate.is_membership()) {
    // ValuesEqual: a literal of the other numeric type enters the set
    // only when it converts exactly; a string literal matches no row.
    for (const Value& v : predicate.membership_values()) {
      if (v.is_null()) {
        node->null_matches = true;
      } else if (v.type() == ValueType::kInt64) {
        if (is_int) {
          node->int_set.push_back(v.AsInt64());
        } else if (std::optional<double> d = ExactDouble(v.AsInt64())) {
          node->double_set.push_back(*d);
        }
      } else if (v.type() == ValueType::kDouble) {
        if (!is_int) {
          node->double_set.push_back(v.AsDouble());
        } else if (std::optional<int64_t> i = ExactInt64(v.AsDouble())) {
          node->int_set.push_back(*i);
        }
      }
    }
    if (is_int) {
      node->kind = Node::Kind::kIntIn;
      node->ints = col->ints().data();
    } else {
      node->kind = Node::Kind::kDoubleIn;
      node->doubles = col->doubles().data();
    }
    return CompiledPredicate(std::move(node));
  }
  // Caller-written UDF over a numeric column: boxed per-row kernel.
  // Matches() includes the negation, so the node applies none.
  node->kind = Node::Kind::kBoxed;
  node->negate = false;
  node->column = col;
  node->boxed = predicate;
  return CompiledPredicate(std::move(node));
}

Result<CompiledPredicate> CompiledPredicate::Compile(const Table& table,
                                                     const SqlExpr& expr) {
  switch (expr.kind) {
    case SqlExpr::Kind::kCondition:
      return Compile(table, SqlConditionToPredicate(expr.condition));
    case SqlExpr::Kind::kNot: {
      PCLEAN_ASSIGN_OR_RETURN(CompiledPredicate child,
                              Compile(table, expr.children.front()));
      auto node = std::make_shared<Node>();
      node->kind = Node::Kind::kNot;
      if (child.root_ == nullptr) {
        node->kind = Node::Kind::kConst;
        node->const_value = false;
        return CompiledPredicate(std::move(node));
      }
      node->children.push_back(std::move(child.root_));
      return CompiledPredicate(std::move(node));
    }
    case SqlExpr::Kind::kAnd:
    case SqlExpr::Kind::kOr: {
      auto node = std::make_shared<Node>();
      node->kind = expr.kind == SqlExpr::Kind::kAnd ? Node::Kind::kAnd
                                                    : Node::Kind::kOr;
      for (const SqlExpr& child_expr : expr.children) {
        PCLEAN_ASSIGN_OR_RETURN(CompiledPredicate child,
                                Compile(table, child_expr));
        if (child.root_ == nullptr) {
          auto truth = std::make_shared<Node>();
          truth->kind = Node::Kind::kConst;
          truth->const_value = true;
          node->children.push_back(std::move(truth));
        } else {
          node->children.push_back(std::move(child.root_));
        }
      }
      return CompiledPredicate(std::move(node));
    }
  }
  return Status::Internal("unhandled SqlExpr kind");
}

template <typename RowAt>
void CompiledPredicate::EvalNode(const Node& node, RowAt row, size_t count,
                                 uint8_t* mask) {
  switch (node.kind) {
    case Node::Kind::kConst:
      std::memset(mask, node.const_value ? 1 : 0, count);
      break;
    case Node::Kind::kStringLookup: {
      const uint32_t* codes = node.codes;
      const uint8_t* match = node.match.data();
      const uint32_t null_slot = node.null_slot;
      for (size_t i = 0; i < count; ++i) {
        uint32_t c = codes[row(i)];
        mask[i] = match[c == kNullCode ? null_slot : c];
      }
      break;
    }
    case Node::Kind::kIntCompare:
      if (node.promote_ints) {
        const int64_t* data = node.ints;
        const uint8_t* validity = node.validity;
        const double bound = node.double_bound;
        const CompareOp op = node.op;
        for (size_t i = 0; i < count; ++i) {
          size_t r = row(i);
          if (validity[r] == 0) {
            mask[i] = 0;
            continue;
          }
          double x = static_cast<double>(data[r]);
          bool m = false;
          switch (op) {
            case CompareOp::kLt: m = x < bound; break;
            case CompareOp::kLe: m = x <= bound; break;
            case CompareOp::kGt: m = x > bound; break;
            case CompareOp::kGe: m = x >= bound; break;
            default: break;
          }
          mask[i] = m ? 1 : 0;
        }
      } else {
        DispatchCompare(node.ints, node.validity, node.int_bound, node.op,
                        row, count, mask);
      }
      break;
    case Node::Kind::kDoubleCompare:
      DispatchCompare(node.doubles, node.validity, node.double_bound,
                      node.op, row, count, mask);
      break;
    case Node::Kind::kIntIn:
      MembershipLoop(node.ints, node.validity, node.int_set,
                     node.null_matches, row, count, mask);
      break;
    case Node::Kind::kDoubleIn:
      MembershipLoop(node.doubles, node.validity, node.double_set,
                     node.null_matches, row, count, mask);
      break;
    case Node::Kind::kBoxed: {
      // Per-batch memo: the predicate is value-deterministic, so repeats
      // within the batch cost one hash lookup.
      std::unordered_map<Value, bool, ValueHash> memo;
      for (size_t i = 0; i < count; ++i) {
        Value v = node.column->ValueAt(row(i));
        auto it = memo.find(v);
        if (it == memo.end()) {
          bool m = node.boxed->Matches(v);
          it = memo.emplace(std::move(v), m).first;
        }
        mask[i] = it->second ? 1 : 0;
      }
      break;
    }
    case Node::Kind::kNot:
      EvalNode(*node.children.front(), row, count, mask);
      for (size_t i = 0; i < count; ++i) mask[i] ^= 1;
      break;
    case Node::Kind::kAnd:
    case Node::Kind::kOr: {
      EvalNode(*node.children.front(), row, count, mask);
      uint8_t tmp[kVectorBatchRows];
      for (size_t c = 1; c < node.children.size(); ++c) {
        EvalNode(*node.children[c], row, count, tmp);
        if (node.kind == Node::Kind::kAnd) {
          for (size_t i = 0; i < count; ++i) mask[i] &= tmp[i];
        } else {
          for (size_t i = 0; i < count; ++i) mask[i] |= tmp[i];
        }
      }
      break;
    }
  }
  if (node.negate) {
    for (size_t i = 0; i < count; ++i) mask[i] ^= 1;
  }
}

void CompiledPredicate::EvalBatch(size_t begin, size_t count,
                                  uint8_t* mask) const {
  if (root_ == nullptr) {
    std::memset(mask, 1, count);
    return;
  }
  EvalNode(*root_, RowRange{begin}, count, mask);
}

void CompiledPredicate::EvalRows(const uint32_t* rows, size_t count,
                                 uint8_t* mask) const {
  if (root_ == nullptr) {
    std::memset(mask, 1, count);
    return;
  }
  EvalNode(*root_, RowList{rows}, count, mask);
}

Result<std::vector<uint8_t>> CompiledPredicate::EvaluateAll(
    size_t num_rows, const ExecutionOptions& exec) const {
  std::vector<uint8_t> out(num_rows);
  PCLEAN_RETURN_NOT_OK(ParallelFor(
      num_rows, ShardCountForRows(num_rows), exec,
      [&](size_t, size_t begin, size_t end) -> Status {
        for (size_t b = begin; b < end; b += kVectorBatchRows) {
          EvalBatch(b, std::min(kVectorBatchRows, end - b), &out[b]);
        }
        return Status::OK();
      }));
  return out;
}

}  // namespace privateclean
