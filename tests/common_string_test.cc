#include "onex/common/string_utils.h"

#include <gtest/gtest.h>
#include <cstdint>
#include <string>
#include <vector>

namespace onex {
namespace {

TEST(StringTest, SplitDropsEmptyFields) {
  EXPECT_EQ(SplitString("a b  c"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(SplitString("  a\t b "), (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(SplitString("").empty());
  EXPECT_TRUE(SplitString("   ").empty());
}

TEST(StringTest, SplitCustomDelims) {
  EXPECT_EQ(SplitString("1,2;3", ",;"),
            (std::vector<std::string>{"1", "2", "3"}));
  EXPECT_EQ(SplitString("1,,2", ","), (std::vector<std::string>{"1", "2"}));
}

TEST(StringTest, SplitKeepEmptyPreservesFields) {
  EXPECT_EQ(SplitKeepEmpty("a::b", ':'),
            (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(SplitKeepEmpty(":", ':'), (std::vector<std::string>{"", ""}));
  EXPECT_EQ(SplitKeepEmpty("x", ':'), (std::vector<std::string>{"x"}));
}

TEST(StringTest, Trim) {
  EXPECT_EQ(TrimString("  abc  "), "abc");
  EXPECT_EQ(TrimString("\t\r\nabc"), "abc");
  EXPECT_EQ(TrimString("abc"), "abc");
  EXPECT_EQ(TrimString("   "), "");
  EXPECT_EQ(TrimString(""), "");
}

TEST(StringTest, ToLowerAndStartsWith) {
  EXPECT_EQ(ToLower("AbC123"), "abc123");
  EXPECT_TRUE(StartsWith("prepare name", "prepare"));
  EXPECT_FALSE(StartsWith("pre", "prepare"));
  EXPECT_TRUE(StartsWith("anything", ""));
}

TEST(StringTest, Join) {
  EXPECT_EQ(JoinStrings({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(JoinStrings({}, ","), "");
  EXPECT_EQ(JoinStrings({"solo"}, ","), "solo");
}

TEST(StringTest, ParseDoubleAcceptsValid) {
  EXPECT_DOUBLE_EQ(*ParseDouble("3.25"), 3.25);
  EXPECT_DOUBLE_EQ(*ParseDouble("-1e-3"), -1e-3);
  EXPECT_DOUBLE_EQ(*ParseDouble("  42 "), 42.0);
  EXPECT_DOUBLE_EQ(*ParseDouble("0"), 0.0);
}

TEST(StringTest, ParseDoubleRejectsInvalid) {
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("   ").ok());
  EXPECT_FALSE(ParseDouble("1.5abc").ok());
  EXPECT_FALSE(ParseDouble("abc").ok());
  EXPECT_FALSE(ParseDouble("1.2.3").ok());
  EXPECT_EQ(ParseDouble("x").status().code(), StatusCode::kParseError);
}

TEST(StringTest, ParseIntAcceptsValid) {
  EXPECT_EQ(*ParseInt("17"), 17);
  EXPECT_EQ(*ParseInt("-5"), -5);
  EXPECT_EQ(*ParseInt(" 1000000000000 "), 1000000000000LL);
}

TEST(StringTest, ParseIntRejectsInvalid) {
  EXPECT_FALSE(ParseInt("").ok());
  EXPECT_FALSE(ParseInt("3.5").ok());
  EXPECT_FALSE(ParseInt("12x").ok());
  EXPECT_FALSE(ParseInt("99999999999999999999999999").ok());  // overflow
}

TEST(StringTest, ParseHex64TakesOneToSixteenHexDigitsOnly) {
  EXPECT_EQ(ParseHex64("0"), 0u);
  EXPECT_EQ(ParseHex64("ff"), 255u);
  EXPECT_EQ(ParseHex64("00000000deadBEEF"), 0xdeadbeefu);
  EXPECT_EQ(ParseHex64("ffffffffffffffff"), ~std::uint64_t{0});
  for (const char* bad :
       {"", "0x1f", "-1", "+1", " 1", "1 ", "g", "00000000000000000"}) {
    EXPECT_FALSE(ParseHex64(bad).has_value()) << "'" << bad << "'";
  }
}

TEST(StringTest, StrFormatBasics) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 3.14159), "3.14");
  EXPECT_EQ(StrFormat("empty"), "empty");
  // Long output exceeding any small static buffer.
  const std::string big = StrFormat("%0512d", 1);
  EXPECT_EQ(big.size(), 512u);
}

}  // namespace
}  // namespace onex
