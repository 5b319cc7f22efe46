#include "provenance/provenance_graph.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <unordered_map>

#include "common/failpoint.h"
#include "common/thread_pool.h"

namespace privateclean {

namespace {

constexpr uint32_t kNoSlot = UINT32_MAX;

/// One worker's (snapshot slot, current slot) row counts over its
/// contiguous row range, where a slot is a ColumnCodes slot (a code, or
/// the null slot past the codes). A range may span the whole table, so
/// the counters are 64-bit. Each snapshot slot keeps the first current
/// slot it pairs with as its primary; the further pairs of a forked
/// dirty value (multi-attribute cleaning, §7) go to `forks`, keyed
/// snapshot slot × current slots + current slot.
struct CodePairPartial {
  std::vector<uint64_t> current_counts;
  std::vector<uint32_t> current_order;  ///< First-appearance order.
  std::vector<uint32_t> primary;        ///< kNoSlot: no row seen.
  std::vector<uint64_t> primary_counts;
  std::unordered_map<uint64_t, uint64_t> forks;
};

Status MissingSnapshotValue(const Column& dirty_snapshot, size_t row) {
  return Status::InvalidArgument(
      "snapshot value '" + dirty_snapshot.ValueAt(row).ToString() +
      "' at row " + std::to_string(row) + " is not in the dirty domain");
}

/// The row count of every (dirty index, clean index) pair, keyed
/// dirty * |clean domain| + clean so the map iterates in ascending
/// (dirty, clean) order.
using PairCounts = std::map<uint64_t, size_t>;

/// One pass over (snapshot slot, current slot) with vector indexing and
/// no per-row hashing, for every column type. Each worker counts one
/// contiguous row range into one partial, so memory is workers × distinct
/// values, not shards × distinct values. The worker-order merge rebuilds
/// the clean domain in global first-appearance order (the ranges are in
/// row order), with each clean value's slot in `clean_slot_order`, and
/// resolves each distinct snapshot slot to its dirty-domain index once.
Status CountCodePairs(const Column& dirty_snapshot, const Column& clean_current,
                      const Domain& dirty_domain, const ExecutionOptions& exec,
                      Domain* clean_domain,
                      std::vector<uint32_t>* clean_slot_order,
                      PairCounts* pairs) {
  const ColumnCodes dirty(dirty_snapshot);
  const ColumnCodes clean(clean_current);
  const size_t rows = clean_current.size();
  const size_t workers =
      std::min(exec.EffectiveThreads(), ShardCountForRows(rows));
  const uint32_t* dirty_codes = dirty.codes();
  const uint32_t* clean_codes = clean.codes();
  const uint32_t dirty_null_slot = dirty.null_slot();
  const uint32_t clean_null_slot = clean.null_slot();
  const size_t dirty_slots = dirty.num_slots();
  const size_t clean_slots = clean.num_slots();

  std::vector<CodePairPartial> partials(workers);
  PCLEAN_RETURN_NOT_OK(ParallelFor(
      rows, workers, exec,
      [&](size_t worker, size_t begin, size_t end) -> Status {
        CodePairPartial& part = partials[worker];
        part.current_counts.assign(clean_slots, 0);
        part.primary.assign(dirty_slots, kNoSlot);
        part.primary_counts.assign(dirty_slots, 0);
        for (size_t r = begin; r < end; ++r) {
          // A branch, not std::min: null rows are rare, and the captured
          // null slots are then loaded only on their rows.
          const uint32_t d =
              dirty_codes[r] == kNullCode ? dirty_null_slot : dirty_codes[r];
          const uint32_t c =
              clean_codes[r] == kNullCode ? clean_null_slot : clean_codes[r];
          if (part.current_counts[c]++ == 0) part.current_order.push_back(c);
          uint32_t& primary = part.primary[d];
          if (primary == c) {
            ++part.primary_counts[d];
          } else if (primary == kNoSlot) {
            primary = c;
            part.primary_counts[d] = 1;
          } else {
            ++part.forks[d * clean_slots + c];
          }
        }
        return Status::OK();
      }));

  // Worker-order merge. Pair counts are integers, so only the clean
  // domain's first-appearance order depends on the merge order.
  std::vector<size_t> clean_totals(clean_slots, 0);
  std::vector<uint32_t> clean_order;
  std::vector<uint32_t> primary(dirty_slots, kNoSlot);
  std::vector<size_t> primary_counts(dirty_slots, 0);
  std::unordered_map<uint64_t, size_t> forks;
  auto add_pair = [&](size_t d, uint32_t c, size_t n) {
    if (primary[d] == kNoSlot) primary[d] = c;
    if (primary[d] == c) {
      primary_counts[d] += n;
    } else {
      forks[d * clean_slots + c] += n;
    }
  };
  for (const CodePairPartial& part : partials) {
    if (part.current_counts.empty()) continue;  // Worker never ran (0 rows).
    for (uint32_t c : part.current_order) {
      if (clean_totals[c] == 0) clean_order.push_back(c);
      clean_totals[c] += part.current_counts[c];
    }
    for (size_t d = 0; d < dirty_slots; ++d) {
      if (part.primary[d] != kNoSlot) {
        add_pair(d, part.primary[d], part.primary_counts[d]);
      }
    }
    for (const auto& [key, n] : part.forks) {
      add_pair(key / clean_slots, static_cast<uint32_t>(key % clean_slots), n);
    }
  }

  const std::vector<uint32_t> dirty_index = dirty.IndicesIn(dirty_domain);
  for (size_t d = 0; d < dirty_slots; ++d) {
    if (primary[d] != kNoSlot && dirty_index[d] == kNoSlot) {
      // Error path only: rescan for the first row with an unknown value.
      size_t r = 0;
      while (dirty_index[std::min(dirty_codes[r], dirty_null_slot)] != kNoSlot) {
        ++r;
      }
      return MissingSnapshotValue(dirty_snapshot, r);
    }
  }

  std::vector<Value> values;
  std::vector<size_t> counts;
  std::vector<uint32_t> clean_index(clean_slots, kNoSlot);
  for (uint32_t c : clean_order) {
    clean_index[c] = static_cast<uint32_t>(values.size());
    values.push_back(clean.ValueOf(c));
    counts.push_back(clean_totals[c]);
  }
  *clean_domain = Domain::FromValueCounts(values, counts);
  auto key = [&](size_t d, size_t c) {
    return uint64_t{dirty_index[d]} * values.size() + clean_index[c];
  };
  for (size_t d = 0; d < dirty_slots; ++d) {
    if (primary[d] != kNoSlot) (*pairs)[key(d, primary[d])] += primary_counts[d];
  }
  for (const auto& [slots, n] : forks) {
    (*pairs)[key(slots / clean_slots, slots % clean_slots)] += n;
  }
  *clean_slot_order = std::move(clean_order);
  return Status::OK();
}

}  // namespace

Result<ProvenanceGraph> ProvenanceGraph::Build(const Column& dirty_snapshot,
                                               const Column& clean_current,
                                               const Domain& dirty_domain,
                                               const ExecutionOptions& exec) {
  if (dirty_snapshot.size() != clean_current.size()) {
    return Status::InvalidArgument(
        "dirty snapshot and clean column must have equal length");
  }
  if (dirty_domain.empty()) {
    return Status::InvalidArgument("dirty domain must be non-empty");
  }
  // Injection point after argument validation, before the sharded
  // pass: a fault here models the lazy graph build failing when a query
  // first touches a cleaned attribute.
  PCLEAN_FAILPOINT("provenance.graph.build", "");

  ProvenanceGraph graph;
  graph.dirty_domain_ = dirty_domain;
  PairCounts pairs;
  PCLEAN_RETURN_NOT_OK(CountCodePairs(dirty_snapshot, clean_current,
                                      dirty_domain, exec, &graph.clean_domain_,
                                      &graph.clean_slots_, &pairs));

  // Assemble edges in ascending (dirty, clean) key order.
  const size_t n_dirty = dirty_domain.size();
  const size_t n_clean = graph.clean_domain_.size();
  std::vector<size_t> dirty_totals(n_dirty, 0);
  for (const auto& [key, count] : pairs) dirty_totals[key / n_clean] += count;
  graph.edges_by_clean_.resize(n_clean);
  graph.dirty_out_degree_.assign(n_dirty, 0);
  for (const auto& [key, count] : pairs) {
    size_t d_idx = static_cast<size_t>(key / n_clean);
    size_t c_idx = static_cast<size_t>(key % n_clean);
    double weight =
        static_cast<double>(count) / static_cast<double>(dirty_totals[d_idx]);
    graph.edges_by_clean_[c_idx].push_back(Edge{d_idx, weight});
    ++graph.dirty_out_degree_[d_idx];
    ++graph.num_edges_;
    if (graph.dirty_out_degree_[d_idx] > 1) graph.fork_free_ = false;
  }
  return graph;
}

double ProvenanceGraph::WeightedSelectivity(
    const std::vector<size_t>& clean_indices) const {
  double l = 0.0;
  for (size_t m : clean_indices) {
    for (const Edge& e : edges_by_clean_[m]) l += e.weight;
  }
  // The exact cut never exceeds N, but the k rounded weights of a dirty
  // value forked over k clean values can add up to an ulp or more over 1
  // (k = 9: 1 + 2^-52), which the estimators would reject.
  return std::min(l, static_cast<double>(dirty_domain_.size()));
}

size_t ProvenanceGraph::UnweightedSelectivity(
    const std::vector<size_t>& clean_indices) const {
  return ParentSet(clean_indices).size();
}

std::vector<size_t> ProvenanceGraph::ParentSet(
    const std::vector<size_t>& clean_indices) const {
  std::vector<uint8_t> seen(dirty_domain_.size(), 0);
  std::vector<size_t> parents;
  for (size_t m : clean_indices) {
    for (const Edge& e : edges_by_clean_[m]) {
      if (!seen[e.dirty_index]) {
        seen[e.dirty_index] = 1;
        parents.push_back(e.dirty_index);
      }
    }
  }
  return parents;
}

double ProvenanceGraph::MergeRate(
    const std::vector<size_t>& clean_indices) const {
  const double n = static_cast<double>(dirty_domain_.size());
  const double n_clean = static_cast<double>(clean_domain_.size());
  const double l_clean = static_cast<double>(clean_indices.size());
  return WeightedSelectivity(clean_indices) / n - l_clean / n_clean;
}

double ProvenanceGraph::EdgeWeight(size_t dirty_index,
                                   size_t clean_index) const {
  for (const Edge& e : edges_by_clean_[clean_index]) {
    if (e.dirty_index == dirty_index) return e.weight;
  }
  return 0.0;
}

}  // namespace privateclean
