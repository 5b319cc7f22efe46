#include "common/string_util.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>

namespace privateclean {
namespace {

TEST(TrimTest, Basic) {
  EXPECT_EQ(TrimWhitespace("  abc  "), "abc");
  EXPECT_EQ(TrimWhitespace("abc"), "abc");
  EXPECT_EQ(TrimWhitespace("\t\n abc \r\n"), "abc");
  EXPECT_EQ(TrimWhitespace("   "), "");
  EXPECT_EQ(TrimWhitespace(""), "");
  EXPECT_EQ(TrimWhitespace("a b"), "a b");  // Inner space preserved.
}

TEST(ToLowerTest, Basic) {
  EXPECT_EQ(ToLowerAscii("HeLLo 123 WORLD"), "hello 123 world");
  EXPECT_EQ(ToLowerAscii(""), "");
}

TEST(SplitTest, KeepsEmptyFields) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(JoinTest, Basic) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(SplitJoinTest, RoundTrip) {
  std::string s = "x|y||z";
  EXPECT_EQ(Join(Split(s, '|'), "|"), s);
}

TEST(ParseInt64Test, Valid) {
  EXPECT_EQ(*ParseInt64("42"), 42);
  EXPECT_EQ(*ParseInt64("-7"), -7);
  EXPECT_EQ(*ParseInt64("  123  "), 123);
  EXPECT_EQ(*ParseInt64("0"), 0);
  EXPECT_EQ(*ParseInt64("9223372036854775807"), INT64_MAX);
  EXPECT_EQ(*ParseInt64("-9223372036854775808"), INT64_MIN);
}

TEST(ParseInt64Test, Invalid) {
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64("abc").ok());
  EXPECT_FALSE(ParseInt64("12x").ok());
  EXPECT_FALSE(ParseInt64("1.5").ok());
  EXPECT_FALSE(ParseInt64("9223372036854775808").ok());  // Overflow.
}

TEST(ParseDoubleTest, Valid) {
  EXPECT_DOUBLE_EQ(*ParseDouble("3.14"), 3.14);
  EXPECT_DOUBLE_EQ(*ParseDouble("-2.5e3"), -2500.0);
  EXPECT_DOUBLE_EQ(*ParseDouble("42"), 42.0);
  EXPECT_DOUBLE_EQ(*ParseDouble(" 0.5 "), 0.5);
}

TEST(ParseDoubleTest, Invalid) {
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("pi").ok());
  EXPECT_FALSE(ParseDouble("1.5.2").ok());
  EXPECT_FALSE(ParseDouble("3.14abc").ok());
}

TEST(FormatDoubleTest, IntegralValuesCompact) {
  EXPECT_EQ(FormatDouble(42.0), "42");
  EXPECT_EQ(FormatDouble(-3.0), "-3");
  EXPECT_EQ(FormatDouble(0.0), "0");
}

TEST(FormatDoubleTest, RoundTrips) {
  for (double v : {3.14159, -0.001, 1e-10, 12345.6789, 2.0 / 3.0}) {
    EXPECT_DOUBLE_EQ(*ParseDouble(FormatDouble(v)), v) << v;
  }
}

TEST(StartsEndsWithTest, Basic) {
  EXPECT_TRUE(StartsWith("privateclean", "private"));
  EXPECT_FALSE(StartsWith("private", "privateclean"));
  EXPECT_TRUE(StartsWith("abc", ""));
  EXPECT_TRUE(EndsWith("file.csv", ".csv"));
  EXPECT_FALSE(EndsWith(".csv", "file.csv"));
  EXPECT_TRUE(EndsWith("abc", ""));
}

TEST(DoubleBitsHexTest, RoundTripsEveryBitPattern) {
  const double values[] = {
      0.0,
      -0.0,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::bit_cast<double>(uint64_t{0x7ff8000000000123}),  // NaN payload
      std::bit_cast<double>(uint64_t{0xfff0000000000001}),  // signaling NaN
      std::numeric_limits<double>::denorm_min(),
      std::bit_cast<double>(uint64_t{0x800fffffffffffff}),  // subnormal
      std::numeric_limits<double>::max(),
      0.2,
      -1.5,
  };
  for (double v : values) {
    const std::string hex = DoubleBitsHex(v);
    SCOPED_TRACE(hex);
    ASSERT_EQ(hex.size(), 16u);
    EXPECT_EQ(hex, ToLowerAscii(hex));
    double back = 1.0;
    ASSERT_TRUE(DoubleFromBitsHex(hex, &back));
    EXPECT_EQ(std::bit_cast<uint64_t>(back), std::bit_cast<uint64_t>(v));
  }
  EXPECT_EQ(DoubleBitsHex(0.2), "3fc999999999999a");
  EXPECT_EQ(DoubleBitsHex(-0.0), "8000000000000000");
  EXPECT_EQ(DoubleBitsHex(std::numeric_limits<double>::denorm_min()),
            "0000000000000001");
}

TEST(DoubleBitsHexTest, AcceptsOnlySixteenLowercaseHexDigits) {
  for (const char* bad :
       {"", "3fc999999999999", "3fc999999999999a0", "3FC999999999999A",
        "3fc999999999999A", "0x3fc999999999a9", "3fc99999999999g9",
        "3fc99999 999999a", "+fc999999999999a", "-fc999999999999a"}) {
    SCOPED_TRACE(bad);
    double v = 7.0;
    EXPECT_FALSE(DoubleFromBitsHex(bad, &v));
    EXPECT_EQ(v, 7.0);
  }
}

}  // namespace
}  // namespace privateclean
