#include "query/aggregate.h"

#include <algorithm>
#include <cmath>

#include "common/exact_sum.h"
#include "common/failpoint.h"
#include "common/statistics.h"
#include "table/domain.h"

namespace privateclean {

const char* AggregateTypeToString(AggregateType agg) {
  switch (agg) {
    case AggregateType::kCount:
      return "count";
    case AggregateType::kSum:
      return "sum";
    case AggregateType::kAvg:
      return "avg";
    case AggregateType::kMedian:
      return "median";
    case AggregateType::kPercentile:
      return "percentile";
    case AggregateType::kVar:
      return "var";
    case AggregateType::kStd:
      return "std";
    case AggregateType::kMin:
      return "min";
    case AggregateType::kMax:
      return "max";
  }
  return "unknown";
}

AggregateQuery AggregateQuery::Count(std::optional<Predicate> pred) {
  return AggregateQuery{AggregateType::kCount, "", std::move(pred), 50.0};
}

AggregateQuery AggregateQuery::Sum(std::string attr,
                                   std::optional<Predicate> pred) {
  return AggregateQuery{AggregateType::kSum, std::move(attr),
                        std::move(pred), 50.0};
}

AggregateQuery AggregateQuery::Avg(std::string attr,
                                   std::optional<Predicate> pred) {
  return AggregateQuery{AggregateType::kAvg, std::move(attr),
                        std::move(pred), 50.0};
}

namespace {

Status ValidateNumericAttribute(const Table& table, const std::string& attr) {
  PCLEAN_ASSIGN_OR_RETURN(Field f, table.schema().FieldByName(attr));
  if (f.type == ValueType::kString) {
    return Status::InvalidArgument("aggregate attribute '" + attr +
                                   "' is not numeric");
  }
  return Status::OK();
}

}  // namespace

namespace {

/// Per-shard partial of one ExecuteAggregate pass: everything any of the
/// aggregate kinds needs, merged in shard index order so the moments
/// depend only on the shard layout, never the thread count (the exact
/// sum depends on neither).
struct AggregatePartial {
  size_t count = 0;             ///< Matching rows (count) / non-null (avg).
  size_t masked = 0;            ///< Matching rows including NULLs.
  ExactSum sum;                 ///< Matching non-null values (sum/avg).
  bool has_extreme = false;     ///< min_value/max_value are populated.
  double min_value = 0.0;       ///< For min.
  double max_value = 0.0;       ///< For max.
  RunningMoments moments;       ///< For var/std.
  std::vector<double> values;   ///< For median/percentile (in row order).
};

}  // namespace

Result<double> ExecuteAggregate(const Table& table,
                                const AggregateQuery& query,
                                const ExecutionOptions& exec) {
  if (query.agg == AggregateType::kCount && !query.predicate.has_value()) {
    return static_cast<double>(table.num_rows());
  }
  CompiledPredicate predicate = CompiledPredicate::True();
  if (query.predicate.has_value()) {
    PCLEAN_ASSIGN_OR_RETURN(
        predicate, CompiledPredicate::Compile(table, *query.predicate));
  }
  return ExecuteAggregate(table, query, predicate, exec);
}

Result<double> ExecuteAggregate(const Table& table,
                                const AggregateQuery& query,
                                const CompiledPredicate& predicate,
                                const ExecutionOptions& exec) {
  const size_t rows = table.num_rows();
  const size_t shards = ShardCountForRows(rows);

  if (query.agg == AggregateType::kCount) {
    std::vector<AggregatePartial> partials(shards);
    PCLEAN_RETURN_NOT_OK(ParallelFor(
        rows, shards, exec,
        [&](size_t shard, size_t begin, size_t end) -> Status {
          uint8_t mask[kVectorBatchRows];
          size_t n = 0;
          for (size_t b = begin; b < end; b += kVectorBatchRows) {
            const size_t batch = std::min(kVectorBatchRows, end - b);
            predicate.EvalBatch(b, batch, mask);
            for (size_t i = 0; i < batch; ++i) n += mask[i];
          }
          partials[shard].count = n;
          return Status::OK();
        }));
    size_t n = 0;
    for (const AggregatePartial& part : partials) n += part.count;
    return static_cast<double>(n);
  }

  PCLEAN_RETURN_NOT_OK(
      ValidateNumericAttribute(table, query.numeric_attribute));
  PCLEAN_ASSIGN_OR_RETURN(const Column* col,
                          table.ColumnByName(query.numeric_attribute));

  const bool needs_sum =
      query.agg == AggregateType::kSum || query.agg == AggregateType::kAvg;
  const bool needs_values = query.agg == AggregateType::kMedian ||
                            query.agg == AggregateType::kPercentile;
  const bool needs_moments =
      query.agg == AggregateType::kVar || query.agg == AggregateType::kStd;
  const bool needs_extremes =
      query.agg == AggregateType::kMin || query.agg == AggregateType::kMax;
  std::vector<AggregatePartial> partials(shards);
  PCLEAN_RETURN_NOT_OK(ParallelFor(
      rows, shards, exec,
      [&](size_t shard, size_t begin, size_t end) -> Status {
        AggregatePartial& part = partials[shard];
        uint8_t mask[kVectorBatchRows];
        for (size_t b = begin; b < end; b += kVectorBatchRows) {
          const size_t batch = std::min(kVectorBatchRows, end - b);
          predicate.EvalBatch(b, batch, mask);
          // Matching rows in row order, so value buffers concatenate to
          // the row-loop engine's order.
          for (size_t i = 0; i < batch; ++i) {
            if (!mask[i]) continue;
            const size_t r = b + i;
            part.masked++;
            if (col->IsNull(r)) continue;
            double x = col->NumericAt(r);
            if (needs_sum) part.sum.Add(x);
            ++part.count;
            if (needs_moments) part.moments.Add(x);
            if (needs_values) part.values.push_back(x);
            if (needs_extremes) {
              if (!part.has_extreme) {
                part.has_extreme = true;
                part.min_value = x;
                part.max_value = x;
              } else {
                if (x < part.min_value) part.min_value = x;
                if (x > part.max_value) part.max_value = x;
              }
            }
          }
        }
        return Status::OK();
      }));

  AggregatePartial merged;
  for (AggregatePartial& part : partials) {
    merged.count += part.count;
    merged.masked += part.masked;
    if (needs_sum) merged.sum.Add(part.sum);
    if (needs_moments) merged.moments.Merge(part.moments);
    if (needs_extremes && part.has_extreme) {
      if (!merged.has_extreme) {
        merged.has_extreme = true;
        merged.min_value = part.min_value;
        merged.max_value = part.max_value;
      } else {
        if (part.min_value < merged.min_value) {
          merged.min_value = part.min_value;
        }
        if (part.max_value > merged.max_value) {
          merged.max_value = part.max_value;
        }
      }
    }
    if (needs_values) {
      // Concatenating in shard index order reproduces the serial row
      // order exactly.
      merged.values.insert(merged.values.end(), part.values.begin(),
                           part.values.end());
    }
  }

  switch (query.agg) {
    case AggregateType::kSum:
      // An empty selection sums to 0 (conventional); a selection where
      // every value is NULL does not — that 0 would be silently biased.
      if (merged.masked > 0 && merged.count == 0) {
        return Status::FailedPrecondition(
            "sum over '" + query.numeric_attribute + "' matched " +
            std::to_string(merged.masked) +
            " rows but every value is NULL");
      }
      return merged.sum.Round();
    case AggregateType::kAvg: {
      if (merged.count == 0) {
        return Status::FailedPrecondition("avg over zero matching rows");
      }
      return merged.sum.Round() / static_cast<double>(merged.count);
    }
    case AggregateType::kVar:
    case AggregateType::kStd: {
      if (merged.moments.count() < 2) {
        return Status::FailedPrecondition(
            "var/std needs at least 2 matching rows");
      }
      double var = merged.moments.SampleVariance();
      return query.agg == AggregateType::kVar ? var : std::sqrt(var);
    }
    case AggregateType::kMedian:
    case AggregateType::kPercentile: {
      if (query.agg == AggregateType::kMedian) {
        return Median(std::move(merged.values));
      }
      return Percentile(std::move(merged.values), query.percentile);
    }
    case AggregateType::kMin:
    case AggregateType::kMax: {
      if (!merged.has_extreme) {
        return Status::FailedPrecondition(
            std::string(AggregateTypeToString(query.agg)) +
            " over zero non-null matching rows");
      }
      return query.agg == AggregateType::kMin ? merged.min_value
                                              : merged.max_value;
    }
    case AggregateType::kCount:
      break;  // Handled above.
  }
  return Status::Internal("unhandled aggregate type");
}

namespace {

/// Adds the non-null values of rows [begin, end) to the sum of their
/// key's ColumnCodes slot: the code, a NULL key's kNullCode clamped to
/// the null slot.
template <typename T>
void AddValueSums(const uint32_t* codes, const T* data,
                  const uint8_t* validity, size_t begin, size_t end,
                  uint32_t null_slot, ExactSum* sums) {
  for (size_t r = begin; r < end; ++r) {
    if (validity[r] != 0) {
      sums[std::min(codes[r], null_slot)].Add(static_cast<double>(data[r]));
    }
  }
}

}  // namespace

Result<NumericMoments> ComputeNumericMoments(
    const Table& table, const std::string& numeric_attribute,
    const ExecutionOptions& exec) {
  PCLEAN_RETURN_NOT_OK(ValidateNumericAttribute(table, numeric_attribute));
  PCLEAN_ASSIGN_OR_RETURN(const Column* col,
                          table.ColumnByName(numeric_attribute));
  const size_t shards = ShardCountForRows(table.num_rows());
  std::vector<RunningMoments> partials(shards);
  PCLEAN_RETURN_NOT_OK(ParallelFor(
      table.num_rows(), shards, exec,
      [&](size_t shard, size_t begin, size_t end) -> Status {
        // Every row updates the partial, so it stays local until the
        // shard ends: the shards' slots share cache lines.
        RunningMoments part;
        for (size_t r = begin; r < end; ++r) {
          if (!col->IsNull(r)) part.Add(col->NumericAt(r));
        }
        partials[shard] = part;
        return Status::OK();
      }));
  RunningMoments moments;
  for (const RunningMoments& part : partials) moments.Merge(part);
  return NumericMoments{moments.Mean(), moments.PopulationVariance()};
}

Result<ValueSums> ComputeValueSums(const Table& table,
                                   const std::string& key_attribute,
                                   const std::string& numeric_attribute,
                                   const ExecutionOptions& exec) {
  // Injection point at entry, before the sharded loop: this pass is the
  // row scan a first SUM/AVG runs, so a fault models a query that fails
  // up front (e.g. a paged-out relation), not a partially merged result.
  PCLEAN_FAILPOINT("query.scan.begin", numeric_attribute);
  PCLEAN_ASSIGN_OR_RETURN(const Column* key,
                          table.ColumnByName(key_attribute));
  PCLEAN_RETURN_NOT_OK(ValidateNumericAttribute(table, numeric_attribute));
  PCLEAN_ASSIGN_OR_RETURN(const Column* numeric,
                          table.ColumnByName(numeric_attribute));
  const ColumnCodes key_codes(*key);
  const size_t rows = table.num_rows();
  const size_t slots = key_codes.num_slots();
  const uint32_t null_slot = key_codes.null_slot();

  // One partial per worker, over one contiguous row range.
  const size_t workers =
      std::min(exec.EffectiveThreads(), ShardCountForRows(rows));
  std::vector<std::vector<ExactSum>> partials(workers);
  PCLEAN_RETURN_NOT_OK(ParallelFor(
      rows, workers, exec,
      [&](size_t worker, size_t begin, size_t end) -> Status {
        std::vector<ExactSum>& sums = partials[worker];
        sums.resize(slots);
        const uint32_t* codes = key_codes.codes();
        const uint8_t* validity = numeric->validity().data();
        if (numeric->type() == ValueType::kInt64) {
          AddValueSums(codes, numeric->ints().data(), validity, begin, end,
                       null_slot, sums.data());
        } else {
          AddValueSums(codes, numeric->doubles().data(), validity, begin,
                       end, null_slot, sums.data());
        }
        return Status::OK();
      }));

  std::vector<ExactSum>& merged = partials.front();
  merged.resize(slots);  // No-op unless the table has no rows.
  for (size_t w = 1; w < workers; ++w) {
    for (size_t slot = 0; slot < slots; ++slot) {
      merged[slot].Add(partials[w][slot]);
    }
    partials[w] = {};
  }
  ValueSums out;
  for (const ExactSum& sum : merged) out.total.Add(sum);
  out.sums = PackedExactSums(merged);
  return out;
}

Result<std::map<Value, size_t>> GroupByCount(
    const Table& table, const std::string& group_attribute,
    const std::vector<uint8_t>& mask) {
  PCLEAN_ASSIGN_OR_RETURN(const Column* col,
                          table.ColumnByName(group_attribute));
  if (!mask.empty() && mask.size() != col->size()) {
    return Status::InvalidArgument("row mask length " +
                                   std::to_string(mask.size()) +
                                   " does not match " +
                                   std::to_string(col->size()) + " rows");
  }
  // Keys are boxed Values: a NULL group is Value::Null(), a distinct
  // bucket from a genuine empty-string group (they collided when keys
  // were stringified).
  std::map<Value, size_t> counts;
  for (size_t r = 0; r < col->size(); ++r) {
    if (mask.empty() || mask[r] != 0) counts[col->ValueAt(r)]++;
  }
  return counts;
}

}  // namespace privateclean
