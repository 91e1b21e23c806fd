#include "common/spec.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"

namespace sb::spec {
namespace {

constexpr std::int64_t kI64Min = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kI64Max = std::numeric_limits<std::int64_t>::max();
constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();
constexpr double kLowest = std::numeric_limits<double>::lowest();
constexpr double kMax = std::numeric_limits<double>::max();

TEST(Spec, ParseIntAcceptsWholeDecimalsInRange) {
  EXPECT_EQ(parse_int("0", 0, 10), 0);
  EXPECT_EQ(parse_int("10", 0, 10), 10);
  EXPECT_EQ(parse_int("-7", -10, 10), -7);
  EXPECT_EQ(parse_int("007", 0, 10), 7);
  EXPECT_EQ(parse_int("-9223372036854775808", kI64Min, kI64Max), kI64Min);
  EXPECT_EQ(parse_int("9223372036854775807", kI64Min, kI64Max), kI64Max);
}

TEST(Spec, ParseIntRejectsEverythingElse) {
  for (const char* bad :
       {"", " 1", "1 ", "+1", "0x10", "1e3", "1.0", "2x", "abc", "-", "--1",
        "9223372036854775808", "99999999999999999999"}) {
    EXPECT_FALSE(parse_int(bad, kI64Min, kI64Max)) << "'" << bad << "'";
  }
  EXPECT_FALSE(parse_int("11", 0, 10));
  EXPECT_FALSE(parse_int("-1", 0, 10));
  EXPECT_FALSE(parse_int(std::string("1\0", 2), 0, 10));
}

TEST(Spec, ParseU64CoversTheFullRangeAndNoSign) {
  EXPECT_EQ(parse_u64("18446744073709551615", 0, kU64Max), kU64Max);
  EXPECT_EQ(parse_u64("64", 64, 64), 64u);
  for (const char* bad :
       {"", "-1", "-0", "+1", " 1", "18446744073709551616", "1e3", "0x1"}) {
    EXPECT_FALSE(parse_u64(bad, 0, kU64Max)) << "'" << bad << "'";
  }
  EXPECT_FALSE(parse_u64("63", 64, 128));
  EXPECT_FALSE(parse_u64("129", 64, 128));
}

TEST(Spec, ParseDoubleAcceptsFixedAndExponentForms) {
  EXPECT_EQ(parse_double("0.1", 0, 1), 0.1);
  EXPECT_EQ(parse_double("1e-7", 0, 1), 1e-7);
  EXPECT_EQ(parse_double("1E3", 0, 1e3), 1e3);
  EXPECT_EQ(parse_double("-2.5", -3, 0), -2.5);
  EXPECT_EQ(parse_double(".5", 0, 1), 0.5);
  EXPECT_EQ(parse_double("5.", 0, 10), 5.0);
  EXPECT_EQ(parse_double("1.7976931348623157e308", kLowest, kMax), kMax);
}

TEST(Spec, ParseDoubleRejectsNonFiniteSignedHexAndJunk) {
  for (const char* bad :
       {"", " 1", "1 ", "+0.1", "0x1p3", "inf", "-inf", "nan", "infinity",
        "1e999", "-1e999", "1.0.0", "1e", "e3", "0.1abc", "."}) {
    EXPECT_FALSE(parse_double(bad, kLowest, kMax)) << "'" << bad << "'";
  }
  EXPECT_FALSE(parse_double("1.5", 0, 1));
  EXPECT_FALSE(parse_double("-0.1", 0, 1));
}

TEST(Spec, AboveZeroMakesTheLowerBoundOpen) {
  EXPECT_FALSE(parse_double("0", kAboveZero, 1));
  EXPECT_FALSE(parse_double("-0", kAboveZero, 1));
  EXPECT_EQ(parse_double("1e-300", kAboveZero, 1), 1e-300);
}

TEST(Spec, SplitKeepsEmptyFields) {
  using V = std::vector<std::string>;
  EXPECT_EQ(split("", ':'), V{""});
  EXPECT_EQ(split("a", ':'), V{"a"});
  EXPECT_EQ(split("a::b:", ':'), (V{"a", "", "b", ""}));
  EXPECT_EQ(split(":", ':'), (V{"", ""}));
  EXPECT_EQ(split("1,2,3", ','), (V{"1", "2", "3"}));
}

TEST(Spec, AppendWritesShortestRoundTripText) {
  const auto fmt = [](double v) {
    std::string out;
    append_double(out, v);
    return out;
  };
  EXPECT_EQ(fmt(0.1), "0.1");
  EXPECT_EQ(fmt(300), "300");
  EXPECT_EQ(fmt(450.5), "450.5");
  EXPECT_EQ(fmt(1e-7), "1e-07");
  EXPECT_EQ(fmt(-2.5), "-2.5");
  EXPECT_EQ(fmt(std::nan("")), "nan");
  EXPECT_EQ(fmt(std::numeric_limits<double>::infinity()), "inf");
  EXPECT_EQ(fmt(-std::numeric_limits<double>::infinity()), "-inf");

  std::string ints;
  append_int(ints, kI64Min);
  ints += ' ';
  append_u64(ints, kU64Max);
  EXPECT_EQ(ints, "-9223372036854775808 18446744073709551615");
}

TEST(Spec, FormattedDoublesParseBackBitExact) {
  Rng rng(0x5bec);
  for (int i = 0; i < 20'000; ++i) {
    // Arbitrary finite bit patterns cover subnormals and both extremes.
    double v;
    do {
      v = std::bit_cast<double>(rng.next_u64());
    } while (!std::isfinite(v));
    std::string text;
    append_double(text, v);
    const auto back = parse_double(text, kLowest, kMax);
    ASSERT_TRUE(back) << text;
    EXPECT_EQ(std::signbit(*back), std::signbit(v)) << text;
    EXPECT_EQ(*back, v) << text;
  }
}

TEST(Spec, JsonNumberWritesNullForNonFinite) {
  std::ostringstream os;
  json_number(os, 0.1);
  os << ',';
  json_number(os, 1e21);
  os << ',';
  json_number(os, std::nan(""));
  os << ',';
  json_number(os, -std::numeric_limits<double>::infinity());
  EXPECT_EQ(os.str(), "0.1,1e+21,null,null");
}

TEST(Spec, JsonStringEscapesQuotesBackslashesAndControls) {
  const auto quoted = [](std::string_view s) {
    std::ostringstream os;
    json_string(os, s);
    return os.str();
  };
  EXPECT_EQ(quoted("plain"), "\"plain\"");
  EXPECT_EQ(quoted(""), "\"\"");
  EXPECT_EQ(quoted("say \"hi\""), "\"say \\\"hi\\\"\"");
  EXPECT_EQ(quoted("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(quoted("line\nbreak\ttab\rret"), "\"line\\nbreak\\ttab\\rret\"");
  EXPECT_EQ(quoted(std::string_view("\x01\x1f", 2)), "\"\\u0001\\u001f\"");
  EXPECT_EQ(quoted(std::string_view("nul\0x", 5)), "\"nul\\u0000x\"");
  // Bytes at and above 0x20, UTF-8 included, pass through unchanged.
  EXPECT_EQ(quoted("/~\x7f\xc3\xa9"), "\"/~\x7f\xc3\xa9\"");
}

TEST(Spec, FlagHelpersReturnValidValues) {
  EXPECT_EQ(flag_int("tool", "--n", "42", 1, 100), 42);
  EXPECT_EQ(flag_u64("tool", "--seed", "7", 0, kU64Max), 7u);
  EXPECT_EQ(flag_double("tool", "--x", "1.5", kAboveZero, 2), 1.5);
}

TEST(SpecDeathTest, FlagHelpersExitTwoNamingToolAndFlag) {
  EXPECT_EXIT(flag_int("sbsim", "--duration-ms", "1e3", 1, 1000),
              ::testing::ExitedWithCode(2),
              "sbsim: --duration-ms: bad value '1e3' \\(want an integer in "
              "\\[1, 1000\\]\\)");
  EXPECT_EXIT(flag_u64("sbsim", "--seed", "abc", 0, 9),
              ::testing::ExitedWithCode(2), "sbsim: --seed: bad value 'abc'");
  EXPECT_EXIT(flag_double("sbsim", "--replay-ips", "0", kAboveZero, 1e3),
              ::testing::ExitedWithCode(2),
              "--replay-ips: bad value '0' "
              "\\(want a number in \\(0, 1000\\]\\)");
  EXPECT_EXIT(flag_double("t", "--x", "3", -1, 2.5),
              ::testing::ExitedWithCode(2),
              "want a number in \\[-1, 2.5\\]");
}

}  // namespace
}  // namespace sb::spec
