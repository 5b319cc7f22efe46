#include "privacy/randomized_response.h"

namespace privateclean {

Status ApplyRandomizedResponse(Column* column, const Domain& domain,
                               double p, Rng& rng) {
  if (column == nullptr) {
    return Status::InvalidArgument("column must not be null");
  }
  PCLEAN_ASSIGN_OR_RETURN(PreparedValues domain_values,
                          column->PrepareValues(domain.values()));
  PCLEAN_RETURN_NOT_OK(ApplyRandomizedResponseShard(
      column, domain_values, p, rng, 0, column->size(), nullptr, nullptr));
  column->RecomputeNullCount();
  return Status::OK();
}

Status ApplyRandomizedResponseShard(Column* column,
                                    const PreparedValues& domain_values,
                                    double p, Rng& rng, size_t begin,
                                    size_t end,
                                    const uint32_t* original_indices,
                                    uint8_t* coverage) {
  if (!(p >= 0.0 && p <= 1.0)) {
    return Status::InvalidArgument(
        "randomization probability must be in [0, 1], got " +
        std::to_string(p));
  }
  if (column == nullptr) {
    return Status::InvalidArgument("column must not be null");
  }
  if (domain_values.empty()) {
    return Status::FailedPrecondition(
        "randomized response requires a non-empty domain");
  }
  if (end > column->size() || begin > end) {
    return Status::OutOfRange("randomization range out of bounds");
  }
  if (coverage != nullptr && original_indices == nullptr) {
    return Status::InvalidArgument(
        "coverage tracking requires the original domain indices");
  }

  uint8_t* valid = column->mutable_validity()->data();
  const uint64_t* domain_words = domain_values.words();
  const uint8_t* domain_valid = domain_values.validity();
  const size_t n = domain_values.size();
  // The paper's draw sequence: one Bernoulli(p) per row, one
  // UniformInt(n) only on replacement. p == 0 consumes no draws.
  // UINT32_MAX in `original_indices` flags a row whose value is outside
  // the domain (possible only with a caller-supplied domain); it
  // contributes no coverage.
  column->VisitWords([&](auto* words) {
    using Word = std::remove_pointer_t<decltype(words)>;
    for (size_t r = begin; r < end; ++r) {
      if (p == 0.0 || !rng.Bernoulli(p)) {
        if (coverage != nullptr && original_indices[r] != UINT32_MAX) {
          coverage[original_indices[r]] = 1;
        }
        continue;
      }
      const size_t j = static_cast<size_t>(rng.UniformInt(n));
      words[r] = PreparedValues::As<Word>(domain_words[j]);
      valid[r] = domain_valid[j];
      if (coverage != nullptr) coverage[j] = 1;
    }
  });
  return Status::OK();
}

Result<TransitionProbabilities> ComputeTransitionProbabilities(double p,
                                                               double l,
                                                               double n) {
  if (!(p >= 0.0 && p <= 1.0)) {
    return Status::InvalidArgument("p must be in [0, 1]");
  }
  if (!(n >= 1.0)) {
    return Status::InvalidArgument("N must be >= 1");
  }
  if (!(l >= 0.0 && l <= n)) {
    return Status::InvalidArgument("l must be in [0, N]");
  }
  TransitionProbabilities t;
  t.true_positive = (1.0 - p) + p * l / n;
  t.false_positive = p * l / n;
  t.true_negative = (1.0 - p) + p * (n - l) / n;
  t.false_negative = p * (n - l) / n;
  return t;
}

}  // namespace privateclean
