// Grammar fuzz for AdaptationConfig::parse: ~10k seeded, deterministic
// mutations of valid adaptation specs plus raw garbage (the same harness
// shape as fault_plan_fuzz_test.cc). The contract under test: parse()
// either returns a config or throws std::invalid_argument — never any
// other exception type, never UB (the suite also runs under ASan/UBSan
// in CI). Numeric fields go through the shared codec (common/spec.h), so
// over-range numerics ("rls:1e999") can't leak std::out_of_range.
#include "core/adapt.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <typeinfo>
#include <vector>

#include "common/spec.h"
#include "grammar_fuzz.h"

namespace sb::core {
namespace {

/// Biased toward grammar-relevant bytes so mutations stay interesting.
constexpr std::string_view kAlphabet = testfuzz::fuzz_alphabet(
    "0123456789.:,-+eE \tinfnanbiasrlsdriftresetlambdaclamp\0\x7f");

const std::vector<std::string>& corpus() {
  static const std::vector<std::string> kCorpus = {
      "bias",
      "rls",
      "bias,rls",
      "bias:0.25",
      "bias:0.25:0.5",
      "rls:0.995",
      "rls:0.995:1:1",
      "rls:1:1000000:0",
      "bias:0.1,rls:0.9:10:1,drift:0.25:8",
      "drift:0.5:4,bias",
      "",
  };
  return kCorpus;
}

/// parse() must return or throw std::invalid_argument; nothing else.
void expect_contract(const std::string& input) {
  try {
    const AdaptationConfig cfg = AdaptationConfig::parse(input);
    // Success: to_string() prints every value exactly, so the config must
    // survive the round trip unchanged.
    const std::string canon = cfg.to_string();
    const AdaptationConfig again = AdaptationConfig::parse(canon);
    EXPECT_TRUE(again == cfg)
        << "unstable round-trip for input '" << input << "' -> '" << canon
        << "'";
  } catch (const std::invalid_argument&) {
    // Documented rejection path.
  } catch (const std::exception& e) {
    FAIL() << "parse('" << input << "') leaked " << typeid(e).name() << ": "
           << e.what();
  }
}

TEST(AdaptationConfigFuzz, TenThousandSeededMutations) {
  testfuzz::Mutator m(0xada9f00dULL, kAlphabet);
  int parsed = 0, rejected = 0;
  for (int i = 0; i < 10'000; ++i) {
    const std::string& base = corpus()[m.below(corpus().size())];
    const std::string input =
        m.below(10) == 0
            ? std::string(m.below(32), static_cast<char>(m.next() & 0xff))
            : m.mutate(base);
    try {
      (void)AdaptationConfig::parse(input);
      ++parsed;
    } catch (const std::invalid_argument&) {
      ++rejected;
    }
    expect_contract(input);
  }
  // The mutation stream must exercise both sides of the grammar.
  EXPECT_GT(parsed, 100) << "mutations never produced a valid spec";
  EXPECT_GT(rejected, 1000) << "mutations never produced an invalid spec";
}

TEST(AdaptationConfigFuzz, OverRangeNumericsAreInvalidArgumentNotOutOfRange) {
  for (const char* input :
       {"rls:1e999", "rls:1e-999", "bias:1e999", "rls:0.9:1e999",
        "drift:1e999", "drift:0.5:99999999999999999999",
        "drift:0.5:9223372036854775808", "rls:0.9:1:99999999999999999999"}) {
    EXPECT_THROW((void)AdaptationConfig::parse(input), std::invalid_argument)
        << input;
  }
}

TEST(AdaptationConfigFuzz, ValidCorpusStillParses) {
  for (const std::string& input : corpus()) {
    EXPECT_NO_THROW((void)AdaptationConfig::parse(input)) << input;
  }
}

TEST(AdaptationConfigFuzz, ToStringRoundTripsArbitraryInRangeValuesExactly) {
  testfuzz::Mutator m(0xada97075ULL, kAlphabet);
  for (int i = 0; i < 2'000; ++i) {
    AdaptationConfig cfg;
    cfg.bias = m.below(2) == 1;
    cfg.bias_alpha = testfuzz::any_double_in(m.next(), spec::kAboveZero, 1.0);
    cfg.gain_clamp = testfuzz::any_double_in(m.next(), 0.0, 4.0);
    cfg.rls = m.below(2) == 1;
    cfg.rls_lambda = testfuzz::any_double_in(m.next(), 0.5, 1.0);
    cfg.rls_p0 = testfuzz::any_double_in(m.next(), spec::kAboveZero, 1e12);
    cfg.rls_reset_on_drift = m.below(2) == 1;
    cfg.drift_threshold =
        testfuzz::any_double_in(m.next(), spec::kAboveZero, 100.0);
    cfg.drift_min_joins = 1 + m.below(1'000'000);
    // Knobs of a disabled tier are not printed; compare what is.
    const AdaptationConfig defaults;
    if (!cfg.bias) {
      cfg.bias_alpha = defaults.bias_alpha;
      cfg.gain_clamp = defaults.gain_clamp;
    }
    if (!cfg.rls) {
      cfg.rls_lambda = defaults.rls_lambda;
      cfg.rls_p0 = defaults.rls_p0;
      cfg.rls_reset_on_drift = defaults.rls_reset_on_drift;
    }
    const std::string text = cfg.to_string();
    EXPECT_TRUE(AdaptationConfig::parse(text) == cfg) << text;
  }
}

TEST(AdaptationConfigFuzz, GrammarEdgeCases) {
  // Accepted: empty entries between commas are skipped.
  EXPECT_NO_THROW((void)AdaptationConfig::parse(",,bias,,"));
  // Rejected: bad key, bare drift, too many fields, embedded NUL, bad
  // numerics, out-of-range knobs.
  EXPECT_THROW((void)AdaptationConfig::parse("bais"), std::invalid_argument);
  EXPECT_THROW((void)AdaptationConfig::parse("drift"), std::invalid_argument);
  EXPECT_THROW((void)AdaptationConfig::parse("bias:0.5:1:2"),
               std::invalid_argument);
  EXPECT_THROW((void)AdaptationConfig::parse(std::string("bias\0x", 6)),
               std::invalid_argument);
  EXPECT_THROW((void)AdaptationConfig::parse("bias:nan"),
               std::invalid_argument);
  EXPECT_THROW((void)AdaptationConfig::parse("rls:inf"),
               std::invalid_argument);
  EXPECT_THROW((void)AdaptationConfig::parse("bias:-0.1"),
               std::invalid_argument);
  EXPECT_THROW((void)AdaptationConfig::parse("rls:0.49"),
               std::invalid_argument);
  EXPECT_THROW((void)AdaptationConfig::parse("rls:1:1:3"),
               std::invalid_argument);
  EXPECT_THROW((void)AdaptationConfig::parse("drift:0.5:0"),
               std::invalid_argument);
}

}  // namespace
}  // namespace sb::core
