#include "privacy/randomized_response.h"

namespace privateclean {

Status ApplyRandomizedResponse(Column* column, const Domain& domain,
                               double p, Rng& rng) {
  if (column == nullptr) {
    return Status::InvalidArgument("column must not be null");
  }
  PCLEAN_ASSIGN_OR_RETURN(std::vector<uint32_t> domain_codes,
                          PrepareDomainCodes(column, domain));
  PCLEAN_RETURN_NOT_OK(ApplyRandomizedResponseShard(
      column, domain, p, rng, 0, column->size(), nullptr, nullptr,
      domain_codes.empty() ? nullptr : domain_codes.data()));
  column->RecomputeNullCount();
  return Status::OK();
}

Result<std::vector<uint32_t>> PrepareDomainCodes(Column* column,
                                                 const Domain& domain) {
  if (column == nullptr) {
    return Status::InvalidArgument("column must not be null");
  }
  if (column->type() != ValueType::kString) return std::vector<uint32_t>{};
  std::vector<uint32_t> codes(domain.size(), kNullCode);
  for (size_t j = 0; j < domain.size(); ++j) {
    const Value& v = domain.value(j);
    if (v.is_null()) continue;  // Stays kNullCode: the null member.
    if (v.type() != ValueType::kString) {
      return Status::InvalidArgument(
          std::string("cannot set ") + ValueTypeToString(v.type()) +
          " value in string column");
    }
    codes[j] = column->InternString(v.AsString());
  }
  return codes;
}

Status ApplyRandomizedResponseShard(Column* column, const Domain& domain,
                                    double p, Rng& rng, size_t begin,
                                    size_t end,
                                    const uint32_t* original_indices,
                                    uint8_t* coverage,
                                    const uint32_t* domain_codes) {
  if (!(p >= 0.0 && p <= 1.0)) {
    return Status::InvalidArgument(
        "randomization probability must be in [0, 1], got " +
        std::to_string(p));
  }
  if (column == nullptr) {
    return Status::InvalidArgument("column must not be null");
  }
  if (domain.empty()) {
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
  if (column->type() == ValueType::kString && domain_codes == nullptr) {
    return Status::InvalidArgument(
        "string columns require the PrepareDomainCodes table");
  }

  uint8_t* valid = column->mutable_validity()->data();
  const size_t n = domain.size();
  // The paper's draw sequence: one Bernoulli(p) per row, one
  // UniformInt(n) only on replacement. p == 0 consumes no draws.
  // UINT32_MAX in `original_indices` flags a row whose value is outside
  // the domain (possible only with a caller-supplied domain); it
  // contributes no coverage.
  auto keep = [&](size_t r) {
    if (coverage != nullptr && original_indices[r] != UINT32_MAX) {
      coverage[original_indices[r]] = 1;
    }
  };

  if (column->type() == ValueType::kString) {
    // Dictionary fast path: a replacement is one table lookup and one
    // aligned 4-byte store, so the string and boxed paths produce
    // bit-identical columns from the same stream.
    uint32_t* codes = column->mutable_codes()->data();
    for (size_t r = begin; r < end; ++r) {
      if (p == 0.0 || !rng.Bernoulli(p)) {
        keep(r);
        continue;
      }
      const size_t j = static_cast<size_t>(rng.UniformInt(n));
      const uint32_t code = domain_codes[j];
      codes[r] = code;
      valid[r] = (code == kNullCode) ? 0 : 1;
      if (coverage != nullptr) coverage[j] = 1;
    }
    return Status::OK();
  }

  for (size_t r = begin; r < end; ++r) {
    if (p == 0.0 || !rng.Bernoulli(p)) {
      keep(r);
      continue;
    }
    const size_t j = static_cast<size_t>(rng.UniformInt(n));
    const Value& v = domain.value(j);
    if (v.is_null()) {
      switch (column->type()) {
        case ValueType::kInt64:
          (*column->mutable_ints())[r] = 0;
          break;
        case ValueType::kDouble:
          (*column->mutable_doubles())[r] = 0.0;
          break;
        default:
          return Status::Internal("unexpected column type");
      }
      valid[r] = 0;
    } else {
      if (v.type() != column->type()) {
        return Status::InvalidArgument(
            std::string("cannot set ") + ValueTypeToString(v.type()) +
            " value in " + ValueTypeToString(column->type()) + " column");
      }
      switch (column->type()) {
        case ValueType::kInt64:
          (*column->mutable_ints())[r] = v.AsInt64();
          break;
        case ValueType::kDouble:
          (*column->mutable_doubles())[r] = v.AsDouble();
          break;
        default:
          return Status::Internal("unexpected column type");
      }
      valid[r] = 1;
    }
    if (coverage != nullptr) coverage[j] = 1;
  }
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
