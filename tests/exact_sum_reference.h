#ifndef PRIVATECLEAN_TESTS_EXACT_SUM_REFERENCE_H_
#define PRIVATECLEAN_TESTS_EXACT_SUM_REFERENCE_H_

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

namespace privateclean {
namespace testing_reference {

/// The correctly rounded sum of doubles, written independently of
/// common/exact_sum.h for its tests: the positive and the negative
/// inputs are summed separately as plain unsigned big integers at the
/// 2^-1074 scale (every finite double is an integer multiple of it), in
/// 32-bit limbs, and the difference is rounded to nearest, ties to even,
/// by inspecting its bits one at a time. Slow and obvious on purpose.
class ReferenceSum {
 public:
  void Add(double x) {
    if (std::isnan(x)) {
      nan_ = true;
      return;
    }
    if (std::isinf(x)) {
      (x > 0 ? positive_infinity_ : negative_infinity_) = true;
      return;
    }
    uint64_t bits;
    std::memcpy(&bits, &x, sizeof bits);
    const uint64_t field = (bits >> 52) & 0x7FF;
    const uint64_t fraction = bits & ((uint64_t{1} << 52) - 1);
    // |x| = integer * 2^scale units of 2^-1074.
    const uint64_t integer =
        field == 0 ? fraction : (fraction | (uint64_t{1} << 52));
    const size_t scale = field == 0 ? 0 : static_cast<size_t>(field - 1);
    std::vector<uint32_t>& target = (bits >> 63) ? negative_ : positive_;
    // integer << (scale % 32) spans at most three 32-bit limbs.
    const unsigned shift = scale % 32;
    const uint64_t low = integer << shift;
    const uint64_t high = shift == 0 ? 0 : integer >> (64 - shift);
    const uint32_t pieces[3] = {static_cast<uint32_t>(low),
                                static_cast<uint32_t>(low >> 32),
                                static_cast<uint32_t>(high)};
    for (size_t k = 0; k < 3; ++k) AddAt(target, scale / 32 + k, pieces[k]);
  }

  double Round() const {
    if (nan_ || (positive_infinity_ && negative_infinity_)) {
      return std::numeric_limits<double>::quiet_NaN();
    }
    if (positive_infinity_) return std::numeric_limits<double>::infinity();
    if (negative_infinity_) return -std::numeric_limits<double>::infinity();
    const bool negative = Less(positive_, negative_);
    std::vector<uint32_t> magnitude =
        negative ? Minus(negative_, positive_) : Minus(positive_, negative_);
    long top = static_cast<long>(kLimbs) * 32 - 1;
    while (top >= 0 && !Bit(magnitude, static_cast<size_t>(top))) --top;
    uint64_t result = 0;
    if (top < 0) return 0.0;
    if (top < 53) {
      // Subnormal or the smallest normal binade: exact.
      for (long b = top; b >= 0; --b) {
        result = (result << 1) | Bit(magnitude, static_cast<size_t>(b));
      }
    } else {
      const long shift = top - 52;
      uint64_t significand = 0;
      for (long b = top; b >= shift; --b) {
        significand =
            (significand << 1) | Bit(magnitude, static_cast<size_t>(b));
      }
      const bool round_bit = Bit(magnitude, static_cast<size_t>(shift - 1));
      bool sticky = false;
      for (long b = shift - 2; b >= 0; --b) {
        sticky = sticky || Bit(magnitude, static_cast<size_t>(b));
      }
      long biased = shift + 1;
      if (round_bit && (sticky || (significand & 1))) {
        ++significand;
        if (significand == (uint64_t{1} << 53)) {
          significand >>= 1;
          ++biased;
        }
      }
      if (biased >= 2047) {
        result = uint64_t{0x7FF} << 52;
      } else {
        result = (static_cast<uint64_t>(biased) << 52) |
                 (significand & ((uint64_t{1} << 52) - 1));
      }
    }
    if (negative) result |= uint64_t{1} << 63;
    double out;
    std::memcpy(&out, &result, sizeof out);
    return out;
  }

 private:
  // 2^-1074 .. 2^1024 spans 2098 bits; the rest is carry headroom.
  static constexpr size_t kLimbs = 72;

  /// Adds `value` at limb `limb`, rippling the carry upward.
  static void AddAt(std::vector<uint32_t>& limbs, size_t limb,
                    uint64_t value) {
    uint64_t carry = value;
    while (carry != 0) {
      const uint64_t sum = uint64_t{limbs[limb]} + carry;
      limbs[limb] = static_cast<uint32_t>(sum);
      carry = sum >> 32;
      ++limb;
    }
  }

  static bool Bit(const std::vector<uint32_t>& limbs, size_t bit) {
    return (limbs[bit / 32] >> (bit % 32)) & 1;
  }

  static bool Less(const std::vector<uint32_t>& a,
                   const std::vector<uint32_t>& b) {
    for (size_t i = kLimbs; i-- > 0;) {
      if (a[i] != b[i]) return a[i] < b[i];
    }
    return false;
  }

  /// a - b for a >= b.
  static std::vector<uint32_t> Minus(const std::vector<uint32_t>& a,
                                     const std::vector<uint32_t>& b) {
    std::vector<uint32_t> out(kLimbs, 0);
    int64_t borrow = 0;
    for (size_t i = 0; i < kLimbs; ++i) {
      int64_t d = int64_t{a[i]} - int64_t{b[i]} - borrow;
      borrow = d < 0 ? 1 : 0;
      out[i] = static_cast<uint32_t>(d + (borrow << 32));
    }
    return out;
  }

  std::vector<uint32_t> positive_ = std::vector<uint32_t>(kLimbs, 0);
  std::vector<uint32_t> negative_ = std::vector<uint32_t>(kLimbs, 0);
  bool nan_ = false;
  bool positive_infinity_ = false;
  bool negative_infinity_ = false;
};

/// Reference correctly rounded sum of `values`.
inline double ReferenceExactSum(const std::vector<double>& values) {
  ReferenceSum sum;
  for (double v : values) sum.Add(v);
  return sum.Round();
}

}  // namespace testing_reference
}  // namespace privateclean

#endif  // PRIVATECLEAN_TESTS_EXACT_SUM_REFERENCE_H_
