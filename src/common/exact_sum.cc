#include "common/exact_sum.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.h"

namespace privateclean {

void ExactSum::Carry() {
  // Arithmetic shift and mask split a chunk c into (c >> 32) * 2^32 +
  // (c & mask) for either sign, so the represented integer is unchanged.
  for (int i = 0; i + 1 < kChunks; ++i) {
    chunks_[i + 1] += chunks_[i] >> kDigitBits;
    chunks_[i] &= kDigitMask;
  }
  merges_ = 0;
}

bool ExactSum::NormalizeMagnitude() {
  Carry();
  if (chunks_[kChunks - 1] >= 0) return false;
  for (int64_t& chunk : chunks_) chunk = -chunk;
  Carry();
  return true;
}

void ExactSum::AddNonFinite(uint64_t bits) {
  ++merged_count_;
  if ((bits & kSignificandMask) != 0) {
    ++nans_;
  } else if ((bits >> 63) != 0) {
    ++negative_infinities_;
  } else {
    ++positive_infinities_;
  }
}

void ExactSum::Combine(const ExactSum& other, int64_t sign) {
  // Both sides carried first, so every chunk stays below 2^33 in
  // magnitude: a merge costs the carry budget no more than one value.
  ExactSum carried = other;
  carried.Carry();
  Carry();
  for (int i = 0; i < kChunks; ++i) {
    chunks_[i] += sign * carried.chunks_[i];
  }
  ++merges_;
  merged_count_ += sign * static_cast<int64_t>(other.count());
  nans_ += sign * other.nans_;
  positive_infinities_ += sign * other.positive_infinities_;
  negative_infinities_ += sign * other.negative_infinities_;
}

namespace {

/// 64 bits of the magnitude held in 32-bit `digits` [0, top], starting
/// at bit `pos`.
uint64_t BitsFrom(const int64_t* digits, int top, int pos) {
  auto digit = [&](int i) -> uint64_t {
    return i <= top ? static_cast<uint64_t>(digits[i]) : 0;
  };
  const int first = pos / 32;
  const int offset = pos % 32;
  uint64_t bits = (digit(first) | (digit(first + 1) << 32)) >> offset;
  if (offset != 0) bits |= digit(first + 2) << (64 - offset);
  return bits;
}

/// Whether any bit of the magnitude below bit `pos` is set.
bool AnyBitBelow(const int64_t* digits, int pos) {
  const int first = pos / 32;
  const int offset = pos % 32;
  if ((static_cast<uint64_t>(digits[first]) &
       ((uint64_t{1} << offset) - 1)) != 0) {
    return true;
  }
  for (int i = 0; i < first; ++i) {
    if (digits[i] != 0) return true;
  }
  return false;
}

}  // namespace

double ExactSum::Round() const {
  if (nans_ > 0 || (positive_infinities_ > 0 && negative_infinities_ > 0)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  if (positive_infinities_ > 0) return std::numeric_limits<double>::infinity();
  if (negative_infinities_ > 0) {
    return -std::numeric_limits<double>::infinity();
  }
  ExactSum m = *this;
  const bool negative = m.NormalizeMagnitude();
  int top = kChunks - 1;
  while (top >= 0 && m.chunks_[top] == 0) --top;
  if (top < 0) return 0.0;
  // The magnitude M counts units of 2^-1075 (always an even count) and
  // its highest set bit is `high`.
  const int high = top * 32 + std::bit_width(static_cast<uint64_t>(
                                  m.chunks_[top])) - 1;
  uint64_t bits;
  if (high < 54) {
    // Below 2^-1021: M / 2 is exactly the IEEE bit pattern (a subnormal,
    // or a normal of biased exponent 1, whose hidden bit is the exponent).
    bits = (static_cast<uint64_t>(m.chunks_[0]) |
            (static_cast<uint64_t>(m.chunks_[1]) << 32)) >>
           1;
  } else {
    // M = significand * 2^exponent + rest, with a 53-bit significand.
    const int exponent = high - 52;
    if (exponent >= 2047) {
      bits = 0x7FF0000000000000ULL;
    } else {
      uint64_t significand = BitsFrom(m.chunks_, top, exponent);
      const bool half = (BitsFrom(m.chunks_, top, exponent - 1) & 1) != 0;
      const bool above_half = half && AnyBitBelow(m.chunks_, exponent - 1);
      if (half && (above_half || (significand & 1) != 0)) ++significand;
      // The hidden bit adds one to the biased exponent field, and a
      // significand that rounds up to 2^53 carries into it; at biased
      // exponent 2047 that is exactly the bit pattern of infinity.
      bits = (static_cast<uint64_t>(exponent - 1) << 52) + significand;
    }
  }
  if (negative) bits |= uint64_t{1} << 63;
  return std::bit_cast<double>(bits);
}

PackedExactSums::PackedExactSums(const std::vector<ExactSum>& sums) {
  entries_.reserve(sums.size());
  for (ExactSum sum : sums) Append(std::move(sum));
  digits_.shrink_to_fit();
  non_finite_.shrink_to_fit();
}

void PackedExactSums::Append(ExactSum sum) {
  Entry entry;
  entry.negative = sum.NormalizeMagnitude() ? 1 : 0;
  int first = 0;
  int last = ExactSum::kChunks - 1;
  while (last >= 0 && sum.chunks_[last] == 0) --last;
  while (first < last && sum.chunks_[first] == 0) ++first;
  entry.first_digit = static_cast<uint32_t>(digits_.size());
  PCLEAN_CHECK(digits_.size() + ExactSum::kChunks <=
               std::numeric_limits<uint32_t>::max());
  if (last >= 0) {
    entry.first_chunk = static_cast<uint8_t>(first);
    entry.num_digits = static_cast<uint8_t>(last - first + 1);
    for (int i = first; i <= last; ++i) {
      digits_.push_back(static_cast<uint32_t>(sum.chunks_[i]));
    }
  }
  if (sum.nans_ != 0 || sum.positive_infinities_ != 0 ||
      sum.negative_infinities_ != 0) {
    entry.non_finite = 1;
    non_finite_.push_back(NonFinite{static_cast<uint32_t>(entries_.size()),
                                    sum.nans_, sum.positive_infinities_,
                                    sum.negative_infinities_});
  }
  entry.count = static_cast<int64_t>(sum.count());
  entries_.push_back(entry);
}

void PackedExactSums::AddTo(size_t i, ExactSum* sum) const {
  const Entry& entry = entries_[i];
  const int64_t sign = entry.negative ? -1 : 1;
  const uint32_t* digits = digits_.data() + entry.first_digit;
  for (int k = 0; k < entry.num_digits; ++k) {
    sum->chunks_[entry.first_chunk + k] += sign * digits[k];
  }
  sum->merged_count_ += entry.count;
  if (++sum->merges_ == ExactSum::kMergesPerCarry) sum->Carry();
  if (entry.non_finite) {
    const NonFinite& special = *std::lower_bound(
        non_finite_.begin(), non_finite_.end(), i,
        [](const NonFinite& row, size_t index) { return row.entry < index; });
    sum->nans_ += special.nans;
    sum->positive_infinities_ += special.positive_infinities;
    sum->negative_infinities_ += special.negative_infinities;
  }
}

size_t PackedExactSums::MemoryBytes() const {
  return entries_.capacity() * sizeof(Entry) +
         digits_.capacity() * sizeof(uint32_t) +
         non_finite_.capacity() * sizeof(NonFinite);
}

}  // namespace privateclean
