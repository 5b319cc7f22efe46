#ifndef PRIVATECLEAN_TABLE_COLUMN_H_
#define PRIVATECLEAN_TABLE_COLUMN_H_

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/result.h"
#include "table/dictionary.h"
#include "table/value.h"

namespace privateclean {

/// Memory footprint of one column, split by storage class so callers can
/// attribute bytes to the dictionary versus the dense arrays.
struct ColumnMemory {
  size_t payload_bytes = 0;     ///< Typed vectors + validity (capacities).
  size_t dictionary_bytes = 0;  ///< Arena bytes of the string dictionary.
  size_t dictionary_entries = 0;
};

/// Values as one column stores them (Column::PrepareValues): per value,
/// the word of the column's typed vector (a dictionary code, an int64 or
/// a double's bits) and its validity byte. A bulk writer's row loop, run
/// inside Column::VisitWords, reads words() and validity() through
/// locals and stores As<Word>(word) and the validity byte.
class PreparedValues {
 public:
  size_t size() const { return valid_.size(); }
  bool empty() const { return valid_.empty(); }

  const uint64_t* words() const { return words_.data(); }
  const uint8_t* validity() const { return valid_.data(); }

  /// A storage word as the typed vector `Word` (uint32_t codes, int64_t
  /// or double) holds it.
  template <typename Word>
  static Word As(uint64_t word) {
    if constexpr (std::is_same_v<Word, double>) {
      return std::bit_cast<double>(word);
    } else {
      return static_cast<Word>(word);
    }
  }

 private:
  friend class Column;
  std::vector<uint64_t> words_;
  std::vector<uint8_t> valid_;
};

/// Typed column with a validity vector.
///
/// Storage is unboxed and columnar: `vector<int64_t>` / `vector<double>`
/// for numeric columns, and for string columns a per-column
/// StringDictionary plus a dense `vector<uint32_t>` code array — every
/// hot path in PrivateClean (GRR, predicate scans, provenance builds)
/// operates over *distinct values*, so rows carry dictionary codes and
/// the string bytes are stored once. `Value` boxing happens only at API
/// edges. Null entries keep a placeholder in the typed vector (0 / 0.0 /
/// kNullCode) and are flagged invalid; for string columns the code array
/// and validity vector are kept in lockstep (codes_[r] == kNullCode iff
/// valid_[r] == 0).
class Column {
 public:
  /// Creates an empty column of the given physical type (not kNull).
  static Result<Column> Make(ValueType type);

  ValueType type() const { return type_; }
  size_t size() const { return valid_.size(); }
  bool empty() const { return valid_.empty(); }

  /// Number of null entries.
  size_t null_count() const { return null_count_; }

  /// --- Appends -------------------------------------------------------

  void AppendNull();
  /// Typed appends; calling the mismatched one is a programming error
  /// (checked via PCLEAN_CHECK).
  void AppendInt64(int64_t v);
  void AppendDouble(double v);
  void AppendString(std::string_view v);
  /// Boxed append with type checking; null is accepted for any column type.
  Status AppendValue(const Value& v);

  /// --- Element access --------------------------------------------------

  bool IsNull(size_t row) const { return valid_[row] == 0; }
  /// Unchecked typed getters (row must be valid and type must match).
  int64_t Int64At(size_t row) const { return ints_[row]; }
  double DoubleAt(size_t row) const { return doubles_[row]; }
  std::string_view StringAt(size_t row) const {
    return dict_.At(codes_[row]);
  }
  /// Dictionary code of a row of a string column; kNullCode for null rows.
  uint32_t CodeAt(size_t row) const { return codes_[row]; }
  /// Numeric view of an int64/double entry; 0 for null.
  double NumericAt(size_t row) const;
  /// Boxed getter; returns Value::Null() for null entries.
  Value ValueAt(size_t row) const;

  /// --- Mutation (used by privacy mechanisms and cleaners) --------------

  /// Overwrites row with a boxed value (type-checked; null allowed).
  Status SetValue(size_t row, const Value& v);

  /// --- Bulk writes (randomized response, the cleaners' remap) ----------

  /// `values` ready for bulk writers to store: the single-writer step
  /// before a sharded pass, so the parallel kernels write plain words. A
  /// string is interned into the dictionary (in `values` order), a null
  /// becomes the column's placeholder word, invalid. A non-null value of
  /// another type is InvalidArgument before anything is interned.
  Result<PreparedValues> PrepareValues(const std::vector<Value>& values);

  /// Calls `fn(words)` with the typed storage (int64_t*, double*, or the
  /// uint32_t* codes of a string column), so a bulk writer's row loop is
  /// written once for every type. Writes through it bypass the null
  /// bookkeeping, like mutable_validity(): call RecomputeNullCount() once
  /// all writers have finished.
  template <typename Fn>
  void VisitWords(Fn&& fn) {
    switch (type_) {
      case ValueType::kInt64:
        fn(ints_.data());
        break;
      case ValueType::kDouble:
        fn(doubles_.data());
        break;
      default:
        fn(codes_.data());
    }
  }

  /// --- Dictionary access (string columns only) -------------------------

  /// The column's distinct-value table. Codes index into it.
  const StringDictionary& dictionary() const { return dict_; }

  /// Interns `v` into the dictionary (without appending a row) and
  /// returns its code. Single-writer: must not race with readers of the
  /// dictionary.
  uint32_t InternString(std::string_view v);

  /// --- Raw access for fast scans ---------------------------------------

  const std::vector<int64_t>& ints() const { return ints_; }
  const std::vector<double>& doubles() const { return doubles_; }
  /// Dense dictionary codes of a string column (kNullCode for nulls).
  const std::vector<uint32_t>& codes() const { return codes_; }
  const std::vector<uint8_t>& validity() const { return valid_; }

  /// Mutable numeric payload for in-place Laplace noising. Requires a
  /// double column.
  std::vector<double>* mutable_doubles() { return &doubles_; }
  std::vector<int64_t>* mutable_ints() { return &ints_; }
  /// Mutable code array / validity for sharded in-place mutation.
  /// Writers touching disjoint row ranges through these may run
  /// concurrently — codes must already be interned — but they bypass the
  /// null bookkeeping: keep codes_[r] == kNullCode in lockstep with
  /// valid_[r] == 0 and call RecomputeNullCount() once all writers have
  /// finished.
  std::vector<uint32_t>* mutable_codes() { return &codes_; }
  std::vector<uint8_t>* mutable_validity() { return &valid_; }

  /// A new column holding the given rows in order (rows must be in
  /// range). String columns share the dictionary wholesale — the codes
  /// are copied as-is, no re-interning — so Filter/Take over a large
  /// relation never touch string bytes.
  Column SelectRows(const std::vector<size_t>& rows) const;

  /// Recounts nulls from the validity vector. Required after any
  /// mutation through mutable_validity().
  void RecomputeNullCount();

  /// Pre-allocates capacity for n rows.
  void Reserve(size_t n);

  /// Storage footprint, split into dense payload and dictionary bytes.
  ColumnMemory MemoryUsage() const;

 private:
  explicit Column(ValueType type) : type_(type) {}

  ValueType type_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<uint32_t> codes_;
  StringDictionary dict_;
  std::vector<uint8_t> valid_;
  size_t null_count_ = 0;
};

}  // namespace privateclean

#endif  // PRIVATECLEAN_TABLE_COLUMN_H_
