#ifndef PRIVATECLEAN_COMMON_EXACT_SUM_H_
#define PRIVATECLEAN_COMMON_EXACT_SUM_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace privateclean {

/// The exact sum of a multiset of doubles, rounded once: Neal's small
/// superaccumulator ("Fast exact summation using small and large
/// superaccumulators", arXiv 1505.05571).
///
/// Every finite double is an integer multiple of 2^-1075, so the sum is
/// kept as a big integer in that unit: signed 64-bit chunks of 32-bit
/// digits. Add() splits a value's 53-bit significand over two adjacent
/// chunks with no carry and no branch on its sign; carries propagate once
/// every kAddsPerCarry values, before any chunk can overflow. The sum
/// also counts its values, so a caller that needs the count of a
/// non-null column keeps no second counter.
///
/// Round() is the correctly rounded exact sum (to nearest, ties to even),
/// so the result is the same bits for any order of the inputs and any
/// split into partial sums merged in any order — row order, shard layout
/// and thread count cannot change it. Non-finite inputs keep their
/// meaning under an IEEE running sum: any NaN, or both infinities, gives
/// NaN; one signed infinity gives that infinity; a finite exact sum that
/// rounds beyond DBL_MAX gives ±inf. An exact zero (including an empty
/// sum, or one of only -0.0) is +0.0, as a running sum that starts at
/// +0.0 would be.
class ExactSum {
 public:
  /// Adds one value.
  void Add(double x) {
    const uint64_t bits = std::bit_cast<uint64_t>(x);
    const uint32_t biased = static_cast<uint32_t>(bits >> 52) & 0x7FF;
    if (biased == 0x7FF) [[unlikely]] {
      AddNonFinite(bits);
      return;
    }
    // A subnormal has no hidden bit and the exponent of the smallest
    // normal; the value is significand * 2^(exponent - 1075) either way.
    const uint64_t significand =
        (bits & kSignificandMask) | (uint64_t{biased != 0} << 52);
    const uint32_t exponent = biased + (biased == 0);
    const uint32_t shift = exponent & (kDigitBits - 1);
    const uint32_t chunk = exponent / kDigitBits;
    const int64_t low =
        static_cast<int64_t>((significand << shift) & kDigitMask);
    const int64_t high =
        static_cast<int64_t>(significand >> (kDigitBits - shift));
    const int64_t negate = -static_cast<int64_t>(bits >> 63);  // 0 or -1
    chunks_[chunk] += (low ^ negate) - negate;
    chunks_[chunk + 1] += (high ^ negate) - negate;
    if ((++adds_ & (kAddsPerCarry - 1)) == 0) Carry();
  }

  /// Adds the values of another sum.
  void Add(const ExactSum& other) { Combine(other, 1); }

  /// Removes the values of `other`, which must be a sub-multiset of this
  /// sum's values (e.g. a complement as total minus matching).
  void Subtract(const ExactSum& other) { Combine(other, -1); }

  /// The exact sum, correctly rounded to nearest, ties to even.
  double Round() const;

  /// Number of values in the sum, non-finite ones included.
  size_t count() const { return static_cast<size_t>(adds_ + merged_count_); }

 private:
  friend class PackedExactSums;

  static constexpr uint32_t kDigitBits = 32;
  static constexpr int64_t kDigitMask = (int64_t{1} << kDigitBits) - 1;
  static constexpr uint64_t kSignificandMask = (uint64_t{1} << 52) - 1;
  /// Add() writes chunks 0..64 (biased exponent 2046 / 32 = 63, plus
  /// one). Three more hold the carries of up to 2^64 values, so the top
  /// chunk of a normalized magnitude stays below 2^32.
  static constexpr int kChunks = 68;
  /// A value moves a chunk by less than 2^52 and a carried chunk is below
  /// 2^32, so 1024 values between carries keep every chunk inside int64.
  static constexpr int64_t kAddsPerCarry = 1024;
  /// A packed digit moves a chunk by less than 2^32, so this many merges
  /// on top of kAddsPerCarry values keep every chunk inside int64.
  static constexpr int kMergesPerCarry = 1 << 20;

  /// Moves every chunk's bits above the digit into the next chunk:
  /// chunks 0..66 end in [0, 2^32), the top chunk carries the sign.
  void Carry();
  /// Carries, then negates a negative sum so every chunk is a digit of
  /// the magnitude. Returns whether the sum was negative.
  bool NormalizeMagnitude();
  void AddNonFinite(uint64_t bits);
  void Combine(const ExactSum& other, int64_t sign);

  int64_t chunks_[kChunks] = {};
  /// Calls of Add(double): Add carries on every multiple of
  /// kAddsPerCarry, so nothing else may change it.
  int64_t adds_ = 0;
  int64_t merged_count_ = 0;  ///< Values merged in, and non-finite ones.
  int merges_ = 0;  ///< Packed entries merged since the last Carry().
  int64_t nans_ = 0;
  int64_t positive_infinities_ = 0;
  int64_t negative_infinities_ = 0;
};

/// A sequence of exact sums, each stored as the digits of its normalized
/// magnitude between its lowest and highest nonzero digit: a sum of
/// values within a few binades of each other takes a few digits, not a
/// whole ExactSum. Read-only once built; entries are merged into an
/// ExactSum, never rounded on their own.
class PackedExactSums {
 public:
  PackedExactSums() = default;
  /// Packs `sums`, entry i from sums[i].
  explicit PackedExactSums(const std::vector<ExactSum>& sums);

  size_t size() const { return entries_.size(); }

  /// Adds entry `i`'s values into `*sum`.
  void AddTo(size_t i, ExactSum* sum) const;

  /// Bytes held (vector capacities).
  size_t MemoryBytes() const;

 private:
  struct Entry {
    uint32_t first_digit = 0;  ///< Index into digits_.
    uint8_t first_chunk = 0;   ///< Chunk of digits_[first_digit].
    uint8_t num_digits = 0;
    uint8_t negative = 0;
    uint8_t non_finite = 0;  ///< Has a row in non_finite_.
    int64_t count = 0;
  };
  struct NonFinite {
    uint32_t entry = 0;
    int64_t nans = 0;
    int64_t positive_infinities = 0;
    int64_t negative_infinities = 0;
  };

  void Append(ExactSum sum);

  std::vector<Entry> entries_;
  std::vector<uint32_t> digits_;
  std::vector<NonFinite> non_finite_;  ///< Ascending by entry.
};

}  // namespace privateclean

#endif  // PRIVATECLEAN_COMMON_EXACT_SUM_H_
