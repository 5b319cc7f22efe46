#include "privacy/grr.h"

#include <algorithm>

#include "common/thread_pool.h"
#include "privacy/laplace_mechanism.h"
#include "privacy/randomized_response.h"

namespace privateclean {

namespace {

/// Domain index of every row of `column` before randomization, so the
/// sharded kernels can track Theorem 2 domain coverage during the
/// randomization pass itself (a retry round then costs one pass, not a
/// randomize-then-rescan pair). Each distinct value is resolved against
/// the domain once; a row whose value is outside it (a NaN, which equals
/// nothing) gets UINT32_MAX, which the kernels skip.
std::vector<uint32_t> DomainIndices(const Column& column, const Domain& domain,
                                    const ExecutionOptions& exec) {
  const ColumnCodes codes(column);
  const std::vector<uint32_t> slot_index = codes.IndicesIn(domain);
  const uint32_t* row_codes = codes.codes();
  const uint32_t null_slot = codes.null_slot();
  std::vector<uint32_t> indices(column.size());
  // Read-only on the column and domain, so sharding is safe; the result
  // does not depend on the shard layout.
  (void)ParallelFor(column.size(), ShardCountForRows(column.size()), exec,
                    [&](size_t, size_t begin, size_t end) -> Status {
                      for (size_t r = begin; r < end; ++r) {
                        indices[r] = slot_index[std::min(row_codes[r], null_slot)];
                      }
                      return Status::OK();
                    });
  return indices;
}

/// Randomizes one discrete column in place with the Theorem 2
/// regeneration loop, sharded over row ranges. Every attempt forks one
/// RNG stream per shard, in shard order, off the caller's `rng` — the
/// stream assignment depends only on the shard layout (a function of the
/// row count), never on the thread count, so output is reproducible from
/// the seed regardless of parallelism. The perturbation itself is the
/// randomized-response kernel at the family's p_eff; this loop only owns
/// sharding and coverage.
Status RandomizeDiscreteColumn(Column* col, const Column& original,
                               const Domain& domain, double p_eff,
                               const std::string& name,
                               const GrrOptions& options, Rng& rng,
                               size_t* total_regenerations) {
  const size_t rows = col->size();
  const size_t shards = ShardCountForRows(rows);
  const bool track_coverage = options.ensure_domain_preserved && p_eff > 0.0;

  std::vector<uint32_t> original_indices;
  std::vector<std::vector<uint8_t>> coverage;
  if (track_coverage) {
    original_indices = DomainIndices(original, domain, options.exec);
    coverage.resize(shards);
  }

  // Single-writer step before the parallel section: the domain as the
  // column stores it (string values interned), so the sharded kernels
  // write plain words.
  PCLEAN_ASSIGN_OR_RETURN(PreparedValues domain_values,
                          col->PrepareValues(domain.values()));

  size_t attempts = 0;
  for (;;) {
    std::vector<Rng> shard_rngs = rng.ForkStreams(shards);
    PCLEAN_RETURN_NOT_OK(ParallelFor(
        rows, shards, options.exec,
        [&](size_t shard, size_t begin, size_t end) -> Status {
          // Every row writes the generator's state and a coverage flag,
          // so the shard draws through a stack copy and flags into a
          // buffer it allocates: the shared slots of adjacent shards sit
          // on one cache line.
          Rng shard_rng = shard_rngs[shard];
          if (!track_coverage) {
            return ApplyRandomizedResponseShard(col, domain_values, p_eff,
                                                shard_rng, begin, end,
                                                nullptr, nullptr);
          }
          std::vector<uint8_t> seen(domain.size(), 0);
          PCLEAN_RETURN_NOT_OK(ApplyRandomizedResponseShard(
              col, domain_values, p_eff, shard_rng, begin, end,
              original_indices.data(), seen.data()));
          coverage[shard] = std::move(seen);
          return Status::OK();
        }));
    col->RecomputeNullCount();
    if (!track_coverage) return Status::OK();

    // Merge per-shard coverage: preserved iff every domain value is
    // visible in some shard.
    bool preserved = true;
    for (size_t v = 0; v < domain.size() && preserved; ++v) {
      bool seen = false;
      for (size_t s = 0; s < shards && !seen; ++s) {
        seen = coverage[s][v] != 0;
      }
      preserved = seen;
    }
    if (preserved) return Status::OK();

    ++attempts;
    ++*total_regenerations;
    if (attempts >= options.max_regenerations) {
      return Status::FailedPrecondition(
          "attribute '" + name + "' failed domain preservation after " +
          std::to_string(attempts) +
          " regenerations; dataset likely violates the Theorem 2 size "
          "bound");
    }
    // Restore the original values and retry with fresh randomness. The
    // restore also restores the original's dictionary, so the domain
    // must be re-prepared against it before the next attempt.
    *col = original;
    PCLEAN_ASSIGN_OR_RETURN(domain_values, col->PrepareValues(domain.values()));
  }
}

/// Noises one numerical column with the Laplace mechanism (every family
/// uses it), sharded like the discrete path (shard-indexed RNG forks,
/// thread-count-independent).
Status NoiseNumericColumn(Column* col, double b, const GrrOptions& options,
                          Rng& rng) {
  const size_t rows = col->size();
  const size_t shards = ShardCountForRows(rows);
  std::vector<Rng> shard_rngs = rng.ForkStreams(shards);
  return ParallelFor(rows, shards, options.exec,
                     [&](size_t shard, size_t begin, size_t end) -> Status {
                       // A stack copy, as in RandomizeDiscreteColumn.
                       Rng shard_rng = shard_rngs[shard];
                       return ApplyLaplaceMechanismShard(col, b, shard_rng,
                                                         begin, end);
                     });
}

}  // namespace

Result<GrrOutput> ApplyGrr(const Table& input, const GrrParams& params,
                           const GrrOptions& options, Rng& rng) {
  if (input.num_rows() == 0) {
    return Status::InvalidArgument("cannot privatize an empty relation");
  }
  GrrOutput out;
  out.table = input.Clone();
  out.metadata.dataset_size = input.num_rows();
  out.metadata.mechanism = options.mechanism;

  const Schema& schema = input.schema();
  for (size_t i = 0; i < schema.num_fields(); ++i) {
    const Field& field = schema.field(i);
    const std::string& name = field.name;

    if (field.kind == AttributeKind::kDiscrete) {
      double p;
      if (auto it = params.discrete_p.find(name);
          it != params.discrete_p.end()) {
        p = it->second;
      } else if (params.default_p >= 0.0) {
        p = params.default_p;
      } else {
        return Status::InvalidArgument(
            "no randomization probability for discrete attribute '" + name +
            "' (a non-private column would de-privatize the relation)");
      }
      PCLEAN_ASSIGN_OR_RETURN(
          Domain domain,
          Domain::FromColumn(input, name, /*include_null=*/true,
                             options.exec));
      if (domain.empty()) {
        return Status::FailedPrecondition("attribute '" + name +
                                          "' has an empty domain");
      }
      auto p_eff = ReplacementProbability(options.mechanism, p, domain.size());
      if (!p_eff.ok()) {
        return Status::InvalidArgument("attribute '" + name + "': " +
                                       p_eff.status().message());
      }

      PCLEAN_RETURN_NOT_OK(RandomizeDiscreteColumn(
          out.table.mutable_column(i), input.column(i), domain, *p_eff, name,
          options, rng, &out.total_regenerations));
      out.metadata.discrete.emplace(
          name, DiscreteAttributeMeta{p, std::move(domain)});
    } else {
      double b;
      if (auto it = params.numeric_b.find(name);
          it != params.numeric_b.end()) {
        b = it->second;
      } else if (params.default_b >= 0.0) {
        b = params.default_b;
      } else {
        return Status::InvalidArgument(
            "no Laplace scale for numerical attribute '" + name +
            "' (a non-private column would de-privatize the relation)");
      }
      PCLEAN_ASSIGN_OR_RETURN(double delta,
                              AttributeSensitivity(input, i, options.exec));
      PCLEAN_RETURN_NOT_OK(
          NoiseNumericColumn(out.table.mutable_column(i), b, options, rng));
      out.metadata.numeric.emplace(name, NumericAttributeMeta{b, delta});
    }
  }
  return out;
}

}  // namespace privateclean
