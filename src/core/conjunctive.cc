#include "core/conjunctive.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>
#include <vector>

#include "privacy/randomized_response.h"
#include "query/vectorized.h"

namespace privateclean {

namespace {

/// One side's matched slots: the slots whose first row the predicate
/// matches, as runs of adjacent slots — [begin, end) positions in
/// index.rows — and the rows they hold.
struct MatchedRows {
  std::vector<std::pair<uint32_t, uint32_t>> runs;
  size_t rows = 0;
};

MatchedRows MatchSlots(const CompiledPredicate& predicate,
                       const RowIndex& index) {
  MatchedRows matched;
  const uint32_t* offsets = index.offsets.data();
  uint32_t firsts[kVectorBatchRows];
  uint32_t slot_of[kVectorBatchRows];
  uint8_t mask[kVectorBatchRows];
  const size_t slots = index.num_slots();
  for (size_t s = 0; s < slots;) {
    size_t n = 0;
    for (; s < slots && n < kVectorBatchRows; ++s) {
      if (offsets[s] == offsets[s + 1]) continue;  // A value no row holds.
      firsts[n] = index.rows[offsets[s]];
      slot_of[n++] = static_cast<uint32_t>(s);
    }
    predicate.EvalRows(firsts, n, mask);
    for (size_t i = 0; i < n; ++i) {
      if (mask[i] == 0) continue;
      const uint32_t begin = offsets[slot_of[i]];
      const uint32_t end = offsets[slot_of[i] + 1];
      if (!matched.runs.empty() && matched.runs.back().second == begin) {
        matched.runs.back().second = end;
      } else {
        matched.runs.emplace_back(begin, end);
      }
      matched.rows += end - begin;
    }
  }
  return matched;
}

/// The driving rows that `other` matches: the runs' rows in
/// concatenation order, split into shards whose counts add exactly.
Result<size_t> CountAtRows(const CompiledPredicate& other,
                           const RowIndex& index, const MatchedRows& driving,
                           const ExecutionOptions& exec) {
  // starts[k]: position of run k's first row in the concatenation.
  std::vector<size_t> starts(driving.runs.size());
  size_t total = 0;
  for (size_t k = 0; k < driving.runs.size(); ++k) {
    starts[k] = total;
    total += driving.runs[k].second - driving.runs[k].first;
  }
  const size_t shards = ShardCountForRows(total);
  std::vector<size_t> partials(shards, 0);
  PCLEAN_RETURN_NOT_OK(ParallelFor(
      total, shards, exec,
      [&](size_t shard, size_t begin, size_t end) -> Status {
        size_t k = static_cast<size_t>(
            std::upper_bound(starts.begin(), starts.end(), begin) -
            starts.begin() - 1);
        uint8_t mask[kVectorBatchRows];
        size_t n = 0;
        for (size_t at = begin; at < end; ++k) {
          const size_t run_end =
              std::min(end, starts[k] + driving.runs[k].second -
                                driving.runs[k].first);
          const uint32_t* rows =
              index.rows.data() + driving.runs[k].first + (at - starts[k]);
          for (size_t left = run_end - at; left > 0;) {
            const size_t batch = std::min(kVectorBatchRows, left);
            other.EvalRows(rows, batch, mask);
            for (size_t i = 0; i < batch; ++i) n += mask[i];
            rows += batch;
            left -= batch;
          }
          at = run_end;
        }
        partials[shard] = n;
        return Status::OK();
      }));
  size_t n = 0;
  for (size_t part : partials) n += part;
  return n;
}

}  // namespace

Result<size_t> CountMatchingBoth(const Table& table, const Predicate& cond_a,
                                 const RowIndex* index_a,
                                 const Predicate& cond_b,
                                 const RowIndex* index_b,
                                 const ExecutionOptions& exec,
                                 size_t* rows_a, size_t* rows_b) {
  if (cond_a.attribute() == cond_b.attribute()) {
    return Status::InvalidArgument(
        "conjunctive estimation requires predicates on two different "
        "attributes (combine same-attribute conditions into one "
        "Predicate instead)");
  }
  if ((index_a == nullptr && rows_a != nullptr) ||
      (index_b == nullptr && rows_b != nullptr) ||
      (index_a == nullptr && index_b == nullptr)) {
    return Status::InvalidArgument(
        "a two-attribute count reads the row index of a discrete side");
  }
  PCLEAN_ASSIGN_OR_RETURN(CompiledPredicate pred_a,
                          CompiledPredicate::Compile(table, cond_a));
  PCLEAN_ASSIGN_OR_RETURN(CompiledPredicate pred_b,
                          CompiledPredicate::Compile(table, cond_b));
  std::optional<MatchedRows> matched_a;
  std::optional<MatchedRows> matched_b;
  if (index_a != nullptr) matched_a = MatchSlots(pred_a, *index_a);
  if (index_b != nullptr) matched_b = MatchSlots(pred_b, *index_b);
  if (rows_a != nullptr) *rows_a = matched_a->rows;
  if (rows_b != nullptr) *rows_b = matched_b->rows;
  // The side whose matched slots hold fewer rows drives.
  if (matched_a.has_value() &&
      (!matched_b.has_value() || matched_a->rows <= matched_b->rows)) {
    return CountAtRows(pred_b, *index_a, *matched_a, exec);
  }
  return CountAtRows(pred_a, *index_b, *matched_b, exec);
}

Result<ConjunctiveScanStats> CountConjunctiveQuadrants(
    const Table& table, const Predicate& cond_a, const RowIndex& index_a,
    const Predicate& cond_b, const RowIndex& index_b,
    const ExecutionOptions& exec) {
  size_t rows_a = 0;
  size_t rows_b = 0;
  ConjunctiveScanStats stats;
  stats.total_rows = table.num_rows();
  PCLEAN_ASSIGN_OR_RETURN(stats.count_tt,
                          CountMatchingBoth(table, cond_a, &index_a, cond_b,
                                            &index_b, exec, &rows_a, &rows_b));
  stats.count_tf = rows_a - stats.count_tt;
  stats.count_ft = rows_b - stats.count_tt;
  stats.count_ff = stats.total_rows - rows_a - stats.count_ft;
  return stats;
}

Result<QueryResult> EstimateConjunctiveCount(
    const ConjunctiveScanStats& stats, const EstimationInputs& in_a,
    const EstimationInputs& in_b) {
  PCLEAN_RETURN_NOT_OK(in_a.Validate());
  PCLEAN_RETURN_NOT_OK(in_b.Validate());
  if (stats.total_rows == 0) {
    return Status::InvalidArgument("cannot estimate over an empty relation");
  }
  PCLEAN_ASSIGN_OR_RETURN(
      TransitionProbabilities ta,
      ComputeTransitionProbabilities(in_a.p, in_a.l, in_a.n));
  PCLEAN_ASSIGN_OR_RETURN(
      TransitionProbabilities tb,
      ComputeTransitionProbabilities(in_b.p, in_b.l, in_b.n));

  // Per-attribute inverse transition matrix:
  //   M = [[tau_p, tau_n], [1-tau_p, 1-tau_n]],
  //   M^-1 = 1/(tau_p - tau_n) [[1-tau_n, -tau_n], [-(1-tau_p), tau_p]].
  // The joint inverse is Minv_a (x) Minv_b; we only need the first row of
  // the Kronecker product (the TT component of q_true).
  double det_a = ta.true_positive - ta.false_positive;  // == 1 - p_a.
  double det_b = tb.true_positive - tb.false_positive;  // == 1 - p_b.
  double ia_t = (1.0 - ta.false_positive) / det_a;   // Minv_a[0][0]
  double ia_f = -ta.false_positive / det_a;          // Minv_a[0][1]
  double ib_t = (1.0 - tb.false_positive) / det_b;   // Minv_b[0][0]
  double ib_f = -tb.false_positive / det_b;          // Minv_b[0][1]

  double q_tt = static_cast<double>(stats.count_tt);
  double q_tf = static_cast<double>(stats.count_tf);
  double q_ft = static_cast<double>(stats.count_ft);
  double q_ff = static_cast<double>(stats.count_ff);
  double estimate = ia_t * ib_t * q_tt + ia_t * ib_f * q_tf +
                    ia_f * ib_t * q_ft + ia_f * ib_f * q_ff;

  // CLT interval: the observed TT indicator is Bernoulli per row; the
  // correction weights are bounded by 1/((1-p_a)(1-p_b)). Conservative
  // multinomial bound on the dominant term.
  double s = static_cast<double>(stats.total_rows);
  double frac_tt = q_tt / s;
  double conf = in_a.confidence;  // Shared level; in_b's is informational.
  PCLEAN_ASSIGN_OR_RETURN(double z, ZScoreForConfidence(conf));
  double half = z / (det_a * det_b) *
                std::sqrt(s * frac_tt * (1.0 - frac_tt) + 0.25 * s);

  QueryResult result;
  result.estimator = EstimatorKind::kPrivateClean;
  result.estimate = estimate;
  result.ci = ConfidenceInterval{estimate - half, estimate + half};
  result.confidence = conf;
  result.nominal = q_tt;
  result.p = in_a.p;  // Diagnostics carry attribute a's parameters.
  result.l = in_a.l;
  result.n = in_a.n;
  result.s = stats.total_rows;
  return result;
}

}  // namespace privateclean
