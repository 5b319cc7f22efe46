#ifndef PRIVATECLEAN_CLEANING_CLEANER_H_
#define PRIVATECLEAN_CLEANING_CLEANER_H_

#include <functional>
#include <optional>
#include <string>
#include <utility>

#include "common/result.h"
#include "table/domain.h"
#include "table/table.h"

namespace privateclean {

/// The three local-cleaner actions of the paper's cleaning model
/// (§3.2.1). Every supported cleaning operation is one of these,
/// restricted to discrete attributes and deterministic per distinct
/// (projected) input value.
enum class CleanerKind {
  kExtract = 0,    ///< Creates a new discrete attribute from a projection.
  kTransform = 1,  ///< Rewrites a projection's values with a UDF.
  kMerge = 2,      ///< Maps values onto other values of the same domain.
};

const char* CleanerKindToString(CleanerKind kind);

/// Description of an attribute created by an Extract cleaner: the new
/// attribute's name and the snapshotted attribute anchoring its
/// provenance graph (paper §6.2 associates each cleaned attribute with
/// exactly one original attribute).
struct ExtractedAttribute {
  std::string name;
  std::string provenance_anchor;
};

/// A deterministic user-defined cleaning operation on the discrete
/// attributes of a relation (paper §3.2.1).
///
/// Implementations mutate the table in place. Determinism — equal inputs
/// produce equal outputs within one Apply call — is what makes the
/// value-provenance graph well defined; UDF-based cleaners enforce it by
/// evaluating the UDF once per distinct (projected) value and
/// broadcasting the result to rows.
class Cleaner {
 public:
  virtual ~Cleaner() = default;

  /// Applies the operation to `table`.
  virtual Status Apply(Table* table) const = 0;

  /// Which of the three model actions this is.
  virtual CleanerKind kind() const = 0;

  /// Human-readable operation name for logs and diagnostics.
  virtual std::string name() const = 0;

  /// Non-empty for Extract cleaners: the attribute they create.
  virtual std::optional<ExtractedAttribute> extracted_attribute() const {
    return std::nullopt;
  }
};

/// Validates that `attribute` exists in `table` and is discrete
/// (cleaning never touches numerical attributes, §3.1).
Status ValidateDiscreteAttribute(const Table& table,
                                 const std::string& attribute);

/// The body of every per-distinct-value cleaner (ValueTransform,
/// FindReplace, DomainMerge, MergeToNull): `fn` is called once per value
/// of the attribute's domain (null included), in first-appearance order,
/// with that pre-cleaning domain as its second argument, and each row
/// takes its value's result; nullopt leaves the value's rows as they are
/// (a double column's -0.0 and +0.0 rows share one domain entry, and an
/// untouched row keeps its own sign). Every result is checked against
/// the column type before anything is interned or written, so a failing
/// call leaves the column as it was. New strings are interned in the
/// domain's first-appearance order, and the rows are rewritten in one
/// pass over their codes (table/domain.h's ColumnCodes).
Status RemapDistinctValues(
    Table* table, const std::string& attribute,
    const std::function<std::optional<Value>(const Value&, const Domain&)>&
        fn);

}  // namespace privateclean

#endif  // PRIVATECLEAN_CLEANING_CLEANER_H_
