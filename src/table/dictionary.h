#ifndef PRIVATECLEAN_TABLE_DICTIONARY_H_
#define PRIVATECLEAN_TABLE_DICTIONARY_H_

#include <cstdint>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/arena.h"
#include "common/result.h"

namespace privateclean {

/// Sentinel code stored in a string column's code array for null rows.
/// Kept in sync with the validity vector by every Column mutator.
inline constexpr uint32_t kNullCode = UINT32_MAX;

/// Per-column distinct-string table: maps each distinct string to a dense
/// `uint32_t` code in first-intern order. String bytes live in an arena,
/// so the `string_view`s handed out by At()
/// are stable for the dictionary's lifetime and the index can key on
/// views of the arena bytes instead of owning copies.
///
/// Thread-safety: Intern() is single-writer (it appends to the arena and
/// the index). Concurrent readers of At()/Find() against a dictionary
/// that is not being mutated are safe — which is the contract the
/// sharded kernels rely on: every domain value is interned *before* the
/// parallel section, and shards then write plain integer codes.
class StringDictionary {
 public:
  StringDictionary() = default;

  StringDictionary(const StringDictionary& other);
  StringDictionary& operator=(const StringDictionary& other);
  StringDictionary(StringDictionary&&) noexcept = default;
  StringDictionary& operator=(StringDictionary&&) noexcept = default;

  /// Code for `s`, interning it if new. Codes are dense and assigned in
  /// first-intern order.
  uint32_t Intern(std::string_view s);

  /// Code for `s` if already interned, else kNullCode.
  uint32_t Find(std::string_view s) const;

  /// The string for a code previously returned by Intern (unchecked).
  std::string_view At(uint32_t code) const { return values_[code]; }

  /// Number of distinct strings.
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  /// All distinct strings in code order.
  const std::vector<std::string_view>& values() const { return values_; }

  /// Bytes of string payload held in the arena.
  size_t arena_bytes() const { return arena_.bytes_used(); }

 private:
  Arena arena_;
  std::vector<std::string_view> values_;  // code -> arena bytes
  std::unordered_map<std::string_view, uint32_t> index_;
};

}  // namespace privateclean

#endif  // PRIVATECLEAN_TABLE_DICTIONARY_H_
