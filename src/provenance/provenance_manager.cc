#include "provenance/provenance_manager.h"

namespace privateclean {

Result<ProvenanceManager> ProvenanceManager::Create(
    const Table& private_table,
    const std::unordered_map<std::string, Domain>& dirty_domains) {
  ProvenanceManager manager;
  const Schema& schema = private_table.schema();
  for (size_t i = 0; i < schema.num_fields(); ++i) {
    const Field& field = schema.field(i);
    if (field.kind != AttributeKind::kDiscrete) continue;
    Domain domain;
    if (auto it = dirty_domains.find(field.name);
        it != dirty_domains.end()) {
      domain = it->second;
    } else {
      PCLEAN_ASSIGN_OR_RETURN(
          domain, Domain::FromColumn(private_table, field.name,
                                     /*include_null=*/true));
    }
    manager.snapshots_.emplace(field.name,
                               Snapshot{std::nullopt, std::move(domain)});
  }
  return manager;
}

Status ProvenanceManager::SnapshotColumns(const Table& current) {
  for (auto& [name, snap] : snapshots_) {
    if (snap.column.has_value()) continue;
    PCLEAN_ASSIGN_OR_RETURN(const Column* column, current.ColumnByName(name));
    snap.column = *column;
  }
  return Status::OK();
}

Status ProvenanceManager::RegisterDerivedAttribute(const std::string& name,
                                                   const std::string& source) {
  if (snapshots_.count(name) > 0 || derived_sources_.count(name) > 0) {
    return Status::AlreadyExists("attribute '" + name +
                                 "' already has provenance");
  }
  // The source must itself resolve (possibly through another derivation).
  PCLEAN_ASSIGN_OR_RETURN(const Snapshot* snap, ResolveSource(source));
  (void)snap;
  // Path-compress: anchor directly to the snapshotted attribute.
  std::string anchor = source;
  if (auto it = derived_sources_.find(source);
      it != derived_sources_.end()) {
    anchor = it->second;
  }
  derived_sources_.emplace(name, std::move(anchor));
  return Status::OK();
}

bool ProvenanceManager::Tracks(const std::string& attribute) const {
  return snapshots_.count(attribute) > 0 ||
         derived_sources_.count(attribute) > 0;
}

Result<const ProvenanceManager::Snapshot*> ProvenanceManager::ResolveSource(
    const std::string& attribute) const {
  std::string name = attribute;
  if (auto it = derived_sources_.find(name); it != derived_sources_.end()) {
    name = it->second;
  }
  auto it = snapshots_.find(name);
  if (it == snapshots_.end()) {
    return Status::NotFound("no provenance snapshot for attribute '" +
                            attribute + "'");
  }
  return &it->second;
}

Result<std::string> ProvenanceManager::AnchorOf(
    const std::string& attribute) const {
  if (snapshots_.count(attribute) > 0) return attribute;
  if (auto it = derived_sources_.find(attribute);
      it != derived_sources_.end()) {
    return it->second;
  }
  return Status::NotFound("no provenance snapshot for attribute '" +
                          attribute + "'");
}

Result<const Domain*> ProvenanceManager::DirtyDomain(
    const std::string& attribute) const {
  PCLEAN_ASSIGN_OR_RETURN(const Snapshot* snap, ResolveSource(attribute));
  return &snap->domain;
}

Result<ProvenanceGraph> ProvenanceManager::GraphFor(
    const Table& current, const std::string& attribute,
    const ExecutionOptions& exec) const {
  PCLEAN_ASSIGN_OR_RETURN(const Snapshot* snap, ResolveSource(attribute));
  PCLEAN_ASSIGN_OR_RETURN(const Column* clean_col,
                          current.ColumnByName(attribute));
  const Column* dirty_col = nullptr;
  if (snap->column.has_value()) {
    dirty_col = &*snap->column;
  } else {
    // Before SnapshotColumns() the anchor's current column is its own
    // snapshot.
    PCLEAN_ASSIGN_OR_RETURN(dirty_col,
                            current.ColumnByName(*AnchorOf(attribute)));
  }
  return ProvenanceGraph::Build(*dirty_col, *clean_col, snap->domain, exec);
}

}  // namespace privateclean
