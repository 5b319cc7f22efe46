#include "core/conjunctive.h"

#include <algorithm>
#include <cmath>

#include "privacy/randomized_response.h"
#include "query/vectorized.h"

namespace privateclean {

Result<ConjunctiveScanStats> ScanConjunctive(const Table& table,
                                             const Predicate& cond_a,
                                             const Predicate& cond_b,
                                             const ExecutionOptions& exec) {
  if (cond_a.attribute() == cond_b.attribute()) {
    return Status::InvalidArgument(
        "conjunctive estimation requires predicates on two different "
        "attributes (combine same-attribute conditions into one "
        "Predicate instead)");
  }
  PCLEAN_ASSIGN_OR_RETURN(CompiledPredicate pred_a,
                          CompiledPredicate::Compile(table, cond_a));
  PCLEAN_ASSIGN_OR_RETURN(CompiledPredicate pred_b,
                          CompiledPredicate::Compile(table, cond_b));
  ConjunctiveScanStats stats;
  stats.total_rows = table.num_rows();
  const size_t shards = ShardCountForRows(table.num_rows());
  std::vector<ConjunctiveScanStats> partials(shards);
  PCLEAN_RETURN_NOT_OK(ParallelFor(
      table.num_rows(), shards, exec,
      [&](size_t shard, size_t begin, size_t end) -> Status {
        ConjunctiveScanStats& part = partials[shard];
        uint8_t mask_a[kVectorBatchRows];
        uint8_t mask_b[kVectorBatchRows];
        for (size_t b = begin; b < end; b += kVectorBatchRows) {
          const size_t batch = std::min(kVectorBatchRows, end - b);
          pred_a.EvalBatch(b, batch, mask_a);
          pred_b.EvalBatch(b, batch, mask_b);
          // Masks are 0/1 bytes: three sums give all four quadrants.
          size_t sum_a = 0;
          size_t sum_b = 0;
          size_t sum_ab = 0;
          for (size_t i = 0; i < batch; ++i) {
            sum_a += mask_a[i];
            sum_b += mask_b[i];
            sum_ab += mask_a[i] & mask_b[i];
          }
          part.count_tt += sum_ab;
          part.count_tf += sum_a - sum_ab;
          part.count_ft += sum_b - sum_ab;
          part.count_ff += batch - (sum_a + sum_b - sum_ab);
        }
        return Status::OK();
      }));
  for (const ConjunctiveScanStats& part : partials) {
    stats.count_tt += part.count_tt;
    stats.count_tf += part.count_tf;
    stats.count_ft += part.count_ft;
    stats.count_ff += part.count_ff;
  }
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
