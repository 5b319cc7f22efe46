#ifndef PRIVATECLEAN_PROVENANCE_PROVENANCE_GRAPH_H_
#define PRIVATECLEAN_PROVENANCE_PROVENANCE_GRAPH_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "table/column.h"
#include "table/domain.h"

namespace privateclean {

/// Bipartite value-provenance graph for one discrete attribute
/// (paper §6.2 and §7.1).
///
/// Left nodes L are the distinct values of the private relation *before*
/// cleaning (the "dirty" domain — identical to the randomization domain
/// by domain preservation); right nodes M are the distinct values after
/// cleaning. An edge (l, m) with weight w_lm carries the fraction of
/// rows holding dirty value l that were mapped to clean value m:
///
///   w_lm = |rows with dirty value l and clean value m| /
///          |rows with dirty value l|
///
/// Single-attribute deterministic cleaning yields a fork-free graph with
/// all weights 1 (§6); multi-attribute cleaning can fork a dirty value
/// across several clean values with fractional weights (§7, Example 6).
///
/// Storage follows §6.4/§7.3: per clean value, its incident dirty edges,
/// so a predicate touching l' clean values is answered in O(l') plus the
/// size of their edge lists.
class ProvenanceGraph {
 public:
  /// Builds the graph from a snapshot of the attribute taken before
  /// cleaning and its current (cleaned) contents. `dirty_domain` is the
  /// randomization-time domain and fixes N = |L| even if some value lost
  /// all of its rows during later operations. The two columns must have
  /// equal length, and every snapshot value must belong to
  /// `dirty_domain`.
  ///
  /// Construction is sharded per `exec` (common/thread_pool.h) with
  /// per-shard partials merged in shard index order, so the graph
  /// (domain order, edge order, weights) is identical at every thread
  /// count. Every column type takes one row pass over (snapshot code,
  /// current code) pairs, with codes from ColumnCodes (table/domain.h):
  /// values that Value== folds (-0.0 and +0.0) share a node, and each NaN
  /// row is a clean node of its own. The clean domain's frequencies are
  /// the clean values' row counts.
  static Result<ProvenanceGraph> Build(const Column& dirty_snapshot,
                                       const Column& clean_current,
                                       const Domain& dirty_domain,
                                       const ExecutionOptions& exec = {});

  /// N: number of distinct dirty values.
  size_t num_dirty_values() const { return dirty_domain_.size(); }

  /// |M|: number of distinct clean values.
  size_t num_clean_values() const { return clean_domain_.size(); }

  /// Total number of edges.
  size_t num_edges() const { return num_edges_; }

  /// True iff no dirty value maps to more than one clean value
  /// (the §6 single-attribute regime; weights are then all 1).
  bool is_fork_free() const { return fork_free_; }

  /// The dirty / clean domains.
  const Domain& dirty_domain() const { return dirty_domain_; }
  const Domain& clean_domain() const { return clean_domain_; }

  /// The clean-value queries below name a clean value by its index into
  /// clean_domain() and a dirty value by its index into dirty_domain(),
  /// so every clean value (each NaN row's value included, which equals
  /// nothing) can be named. Indices must be in range; a set of clean
  /// indices must hold no index twice.

  /// Weighted dirty-side selectivity of a predicate (paper §7.2):
  ///   l = Σ_{l ∈ L, m ∈ M_pred} w_lm
  /// where `clean_indices` is M_pred, summed in M_pred's edge order and
  /// capped at N, which only rounding can exceed. For fork-free graphs
  /// this equals the §6.3 vertex count |L_pred|.
  double WeightedSelectivity(const std::vector<size_t>& clean_indices) const;

  /// Unweighted dirty-side selectivity: |L_pred|, the number of dirty
  /// values with at least one edge into M_pred. This is the §6.3 cut; on
  /// forked graphs it over-counts (the PC-U baseline in Figure 7).
  size_t UnweightedSelectivity(const std::vector<size_t>& clean_indices) const;

  /// The parent set L_pred of a clean-value predicate, as dirty indices
  /// in the order M_pred's edge lists reach them.
  std::vector<size_t> ParentSet(const std::vector<size_t>& clean_indices) const;

  /// Merge rate of a predicate (paper §6.1): l/N − l'/N', the change in
  /// distinct-value selectivity caused by cleaning.
  double MergeRate(const std::vector<size_t>& clean_indices) const;

  /// Edge weight w_lm; 0 when the edge is absent.
  double EdgeWeight(size_t dirty_index, size_t clean_index) const;

  /// The ColumnCodes slot (table/domain.h) of clean value `clean_index`
  /// in the cleaned column the graph was built from: per-value tables
  /// over the same column state (ComputeValueSums) index by it.
  uint32_t clean_slot(size_t clean_index) const {
    return clean_slots_[clean_index];
  }

 private:
  struct Edge {
    size_t dirty_index;  ///< Into dirty_domain_.
    double weight;
  };

  Domain dirty_domain_;
  Domain clean_domain_;
  /// clean value index -> incident edges.
  std::vector<std::vector<Edge>> edges_by_clean_;
  /// clean value index -> its ColumnCodes slot.
  std::vector<uint32_t> clean_slots_;
  size_t num_edges_ = 0;
  bool fork_free_ = true;
  /// Out-degree of each dirty value (for fork detection / diagnostics).
  std::vector<size_t> dirty_out_degree_;
};

}  // namespace privateclean

#endif  // PRIVATECLEAN_PROVENANCE_PROVENANCE_GRAPH_H_
