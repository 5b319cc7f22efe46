#include "privacy/laplace_mechanism.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/thread_pool.h"

namespace privateclean {

Status ApplyLaplaceMechanism(Column* column, double b, Rng& rng) {
  if (column == nullptr) {
    return Status::InvalidArgument("column must not be null");
  }
  return ApplyLaplaceMechanismShard(column, b, rng, 0, column->size());
}

Status ApplyLaplaceMechanismShard(Column* column, double b, Rng& rng,
                                  size_t begin, size_t end) {
  if (column == nullptr) {
    return Status::InvalidArgument("column must not be null");
  }
  if (!(b >= 0.0 && std::isfinite(b))) {
    return Status::InvalidArgument(
        "Laplace scale must be finite and >= 0, got " + std::to_string(b));
  }
  if (column->type() == ValueType::kString) {
    return Status::InvalidArgument(
        "Laplace mechanism applies to numerical columns only");
  }
  if (end > column->size() || begin > end) {
    return Status::OutOfRange("noising range out of bounds");
  }
  if (b == 0.0) return Status::OK();
  if (column->type() == ValueType::kDouble) {
    std::vector<double>* xs = column->mutable_doubles();
    for (size_t r = begin; r < end; ++r) {
      if (column->IsNull(r)) continue;
      (*xs)[r] = rng.Laplace((*xs)[r], b);
    }
  } else {
    std::vector<int64_t>* xs = column->mutable_ints();
    for (size_t r = begin; r < end; ++r) {
      if (column->IsNull(r)) continue;
      double noised = rng.Laplace(static_cast<double>((*xs)[r]), b);
      (*xs)[r] = static_cast<int64_t>(std::llround(noised));
    }
  }
  return Status::OK();
}

namespace {

/// One shard's bounds over its non-null values; empty is lo = +inf,
/// hi = -inf.
struct Bounds {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
};

/// The bounds of the non-null values of rows [begin, end), kept in a
/// local while the rows are read (the shards' slots share cache lines).
/// With the running bound first, std::min/std::max keep it when x is NaN
/// (every comparison with NaN is false), so a NaN is skipped wherever it
/// sits.
template <typename T>
Bounds FoldBounds(const T* data, const uint8_t* valid, size_t begin,
                  size_t end) {
  Bounds bounds;
  for (size_t r = begin; r < end; ++r) {
    if (valid[r] == 0) continue;
    const double x = static_cast<double>(data[r]);
    bounds.lo = std::min(bounds.lo, x);
    bounds.hi = std::max(bounds.hi, x);
  }
  return bounds;
}

}  // namespace

Result<double> ColumnSensitivity(const Column& column,
                                 const ExecutionOptions& exec) {
  if (column.type() == ValueType::kString) {
    return Status::InvalidArgument(
        "sensitivity is defined for numerical columns only");
  }
  const size_t shards = ShardCountForRows(column.size());
  std::vector<Bounds> partials(shards);
  PCLEAN_RETURN_NOT_OK(ParallelFor(
      column.size(), shards, exec,
      [&](size_t shard, size_t begin, size_t end) -> Status {
        const uint8_t* valid = column.validity().data();
        partials[shard] =
            column.type() == ValueType::kInt64
                ? FoldBounds(column.ints().data(), valid, begin, end)
                : FoldBounds(column.doubles().data(), valid, begin, end);
        return Status::OK();
      }));
  Bounds merged;
  for (const Bounds& part : partials) {
    merged.lo = std::min(merged.lo, part.lo);
    merged.hi = std::max(merged.hi, part.hi);
  }
  if (!(merged.lo <= merged.hi)) {
    return Status::FailedPrecondition(
        "sensitivity undefined: column has no non-null, non-NaN entries");
  }
  if (std::isinf(merged.lo) || std::isinf(merged.hi)) {
    return Status::InvalidArgument(
        "sensitivity undefined: column holds an infinite value");
  }
  return merged.hi - merged.lo;
}

Result<double> AttributeSensitivity(const Table& table, size_t i,
                                    const ExecutionOptions& exec) {
  Result<double> delta = ColumnSensitivity(table.column(i), exec);
  if (delta.ok()) return delta;
  return Status::WithCode(delta.status().code(),
                          "attribute '" + table.schema().field(i).name +
                              "': " + delta.status().message());
}

}  // namespace privateclean
