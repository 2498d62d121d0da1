#include "util/strings.h"

#include <gtest/gtest.h>

namespace gva {
namespace {

TEST(JoinTest, Basics) {
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"a"}, ","), "a");
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
}

TEST(SplitTest, Basics) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split(",x,", ','), (std::vector<std::string>{"", "x", ""}));
}

TEST(SplitJoinTest, RoundTrip) {
  std::vector<std::string> parts{"alpha", "", "gamma", "d"};
  EXPECT_EQ(Split(Join(parts, "|"), '|'), parts);
}

TEST(StripWhitespaceTest, Basics) {
  EXPECT_EQ(StripWhitespace("  hi  "), "hi");
  EXPECT_EQ(StripWhitespace("\t\r\nx\n"), "x");
  EXPECT_EQ(StripWhitespace("nospace"), "nospace");
  EXPECT_EQ(StripWhitespace("   "), "");
  EXPECT_EQ(StripWhitespace(""), "");
}

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("%d + %d = %d", 2, 2, 4), "2 + 2 = 4");
  EXPECT_EQ(StrFormat("%.3f", 3.14159), "3.142");
  EXPECT_EQ(StrFormat("%s/%zu", "a", static_cast<size_t>(9)), "a/9");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(FormatWithThousandsTest, MatchesPaperTypography) {
  EXPECT_EQ(FormatWithThousands(0), "0");
  EXPECT_EQ(FormatWithThousands(999), "999");
  EXPECT_EQ(FormatWithThousands(1000), "1'000");
  EXPECT_EQ(FormatWithThousands(112405), "112'405");
  EXPECT_EQ(FormatWithThousands(271442101), "271'442'101");
  EXPECT_EQ(FormatWithThousands(1130000000000ULL), "1'130'000'000'000");
}

TEST(ParseSizeTest, AcceptsDigitsOnly) {
  size_t value = 7;
  EXPECT_TRUE(ParseSize("0", &value));
  EXPECT_EQ(value, 0u);
  EXPECT_TRUE(ParseSize("18446744073709551615", &value));
  EXPECT_EQ(value, SIZE_MAX);
  for (const char* bad : {"", "abc", "-5", "+5", " 5", "5 ", "3x", "1.5",
                          "18446744073709551616", "99999999999999999999"}) {
    value = 7;
    EXPECT_FALSE(ParseSize(bad, &value)) << "'" << bad << "'";
    EXPECT_EQ(value, 7u) << "'" << bad << "' must leave the output alone";
  }
}

}  // namespace
}  // namespace gva
