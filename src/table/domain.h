#ifndef PRIVATECLEAN_TABLE_DOMAIN_H_
#define PRIVATECLEAN_TABLE_DOMAIN_H_

#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "table/table.h"

namespace privateclean {

class Domain;

/// The rows of a discrete column as codes over its distinct values: the
/// one place that decides which rows hold the same value, for every
/// column type. A string column's dictionary codes are borrowed as they
/// are (its dictionary may hold values no row carries). An int64/double
/// column gets codes assigned once, in row first-appearance order under
/// Value equality, as Domain compares: -0.0 and +0.0 share a code, and a
/// NaN equals nothing, so each NaN row gets a code of its own. Null rows
/// hold kNullCode.
///
/// Per-value tables are indexed by slot: a row's code, or null_slot()
/// (one past the last code) for a null row — std::min(code, null_slot()),
/// since kNullCode is the largest code. Row loops read codes() and
/// null_slot() into locals. Borrowed codes stay valid while the column's
/// rows are not resized; interning new strings into its dictionary does
/// not disturb them.
class ColumnCodes {
 public:
  explicit ColumnCodes(const Column& column);
  ColumnCodes(const ColumnCodes&) = delete;
  ColumnCodes& operator=(const ColumnCodes&) = delete;

  size_t size() const { return column_.size(); }

  /// Per-row codes (kNullCode for null rows).
  const uint32_t* codes() const { return codes_; }

  /// One slot per code, then the null slot.
  size_t num_slots() const { return size_t{null_slot_} + 1; }
  uint32_t null_slot() const { return null_slot_; }

  /// The value a slot stands for (Value::Null() for the null slot): the
  /// value of the slot's first row for an int64/double column.
  Value ValueOf(uint32_t slot) const;

  /// Per slot, the index of its value in `domain`, or kNullCode where
  /// `domain` lacks it (always for a NaN): one lookup per distinct value.
  std::vector<uint32_t> IndicesIn(const Domain& domain) const;

 private:
  const Column& column_;
  std::vector<uint32_t> assigned_;  ///< int64/double: the assigned codes.
  std::vector<size_t> first_row_;   ///< int64/double: each code's first row.
  const uint32_t* codes_ = nullptr;
  uint32_t null_slot_ = 0;
};

/// The active domain of a discrete attribute: its distinct values with
/// frequencies, in first-appearance order.
///
/// This is the paper's `Domain(d_i)` — the set randomized response draws
/// replacements from (Section 4.2.1) and the node set of the provenance
/// graph (Section 6.2). Null is a first-class domain member when present,
/// since cleaners may merge spurious values *to* null (IntelWireless
/// experiment).
class Domain {
 public:
  /// Computes the domain of `field` in `table`. `include_null` controls
  /// whether null entries contribute a domain member.
  static Result<Domain> FromColumn(const Table& table,
                                   const std::string& field,
                                   bool include_null = true,
                                   const ExecutionOptions& exec = {});

  /// The domain of the column behind `codes`: its slots tallied in row
  /// first-appearance order. The count pass gives each worker of `exec`
  /// one contiguous row range and merges in worker order, so the domain
  /// does not depend on the thread count.
  static Domain FromCodes(const ColumnCodes& codes, bool include_null = true,
                          const ExecutionOptions& exec = {});

  /// Computes a domain from an explicit list of values (deduplicated,
  /// frequencies counted).
  static Domain FromValues(const std::vector<Value>& values);

  /// Builds a domain from parallel (value, occurrence count) lists —
  /// used by sharded consumers that pre-aggregate per shard and merge in
  /// shard index order, so the first-appearance order and frequencies
  /// match what FromValues would compute over the full value stream.
  /// Repeated values accumulate their counts.
  static Domain FromValueCounts(const std::vector<Value>& values,
                                const std::vector<size_t>& counts);

  /// Number of distinct values (paper's N).
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  /// Distinct values in first-appearance order.
  const std::vector<Value>& values() const { return values_; }

  /// i-th distinct value.
  const Value& value(size_t i) const { return values_[i]; }

  /// Occurrence count of the i-th distinct value.
  size_t frequency(size_t i) const { return freqs_[i]; }

  /// Total number of (counted) rows.
  size_t total_count() const { return total_; }

  /// Index of `v` in the domain, or NotFound.
  Result<size_t> IndexOf(const Value& v) const;

  bool Contains(const Value& v) const { return index_.count(v) > 0; }

 private:
  void Add(const Value& v);
  void AddCount(const Value& v, size_t count);

  std::vector<Value> values_;
  std::vector<size_t> freqs_;
  std::unordered_map<Value, size_t, ValueHash> index_;
  size_t total_ = 0;
};

}  // namespace privateclean

#endif  // PRIVATECLEAN_TABLE_DOMAIN_H_
