#ifndef PRIVATECLEAN_PROVENANCE_PROVENANCE_MANAGER_H_
#define PRIVATECLEAN_PROVENANCE_PROVENANCE_MANAGER_H_

#include <optional>
#include <string>
#include <unordered_map>

#include "common/result.h"
#include "provenance/provenance_graph.h"
#include "table/table.h"

namespace privateclean {

/// Tracks value provenance across an arbitrary composition of cleaning
/// operations (paper §6–§7: one graph per discrete attribute).
///
/// The manager holds the "dirty" side of every discrete column of the
/// private relation V: until SnapshotColumns() the current column is its
/// own snapshot, and SnapshotColumns() — which PrivateTable calls before
/// its first cleaner runs — copies them (~5 B per row each), so a
/// relation that is never cleaned holds no copy. After any sequence of
/// cleaners has mutated the relation, `GraphFor` reconstructs the
/// bipartite graph for an attribute from O(S) (snapshot, current) pairs
/// in one pass over their codes, whatever the attribute's type. This
/// composes automatically: no matter how many Merge/Transform operations
/// ran, the graph always maps the original dirty domain to the *final*
/// clean domain, which is exactly what the estimators need.
///
/// Attributes created by Extract cleaners are registered with
/// `RegisterDerivedAttribute(new, source)`; their graphs map the source
/// attribute's dirty domain to the new attribute's values.
class ProvenanceManager {
 public:
  /// An empty manager tracking nothing (placeholder until Create()).
  ProvenanceManager() = default;

  /// Tracks all discrete columns of `private_table`, copying none yet.
  /// Optional `dirty_domains` (keyed by attribute) override the domains
  /// computed from the columns themselves — pass the randomization-time
  /// domains from GRR metadata so N matches the mechanism even if domain
  /// preservation was disabled.
  static Result<ProvenanceManager> Create(
      const Table& private_table,
      const std::unordered_map<std::string, Domain>& dirty_domains = {});

  /// Copies every tracked column of `current` not copied yet. Call it
  /// before the first mutation of the tracked columns; later calls do
  /// nothing.
  Status SnapshotColumns(const Table& current);

  /// Declares that attribute `name` was created by an Extract over
  /// `source` (a snapshotted discrete attribute).
  Status RegisterDerivedAttribute(const std::string& name,
                                  const std::string& source);

  /// True iff provenance is tracked for this attribute (directly or via
  /// a registered derivation).
  bool Tracks(const std::string& attribute) const;

  /// The dirty (randomization-time) domain backing `attribute`.
  Result<const Domain*> DirtyDomain(const std::string& attribute) const;

  /// The snapshotted attribute anchoring `attribute`'s provenance:
  /// itself for original discrete attributes, the registered source for
  /// Extract-derived ones.
  Result<std::string> AnchorOf(const std::string& attribute) const;

  /// Builds the provenance graph for `attribute` against the current
  /// contents of `current` (the cleaned private relation), whose anchor
  /// column is also the dirty side before SnapshotColumns(). The build is
  /// sharded per `exec` (see ProvenanceGraph::Build); the graph is
  /// identical at every thread count.
  Result<ProvenanceGraph> GraphFor(const Table& current,
                                   const std::string& attribute,
                                   const ExecutionOptions& exec = {}) const;

 private:
  struct Snapshot {
    std::optional<Column> column;  ///< Unset until SnapshotColumns().
    Domain domain;
  };

  /// Resolves an attribute to the snapshot that anchors it.
  Result<const Snapshot*> ResolveSource(const std::string& attribute) const;

  std::unordered_map<std::string, Snapshot> snapshots_;
  std::unordered_map<std::string, std::string> derived_sources_;
};

}  // namespace privateclean

#endif  // PRIVATECLEAN_PROVENANCE_PROVENANCE_MANAGER_H_
