// Grammar fuzz for FaultPlan::parse: ~10k seeded, deterministic mutations
// of valid specs plus raw garbage. The contract under test: parse() either
// returns a plan or throws std::invalid_argument — never any other
// exception type, never UB (the suite also runs under ASan/UBSan in CI).
//
// This harness caught the std::out_of_range leak from std::stod/std::stoi
// on over-range numerics ("wrap:1e999", duration fields past INT_MAX);
// numeric fields now go through the shared codec (common/spec.h).
#include "fault/fault_plan.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <typeinfo>
#include <vector>

#include "grammar_fuzz.h"

namespace sb::fault {
namespace {

/// Biased toward grammar-relevant bytes so mutations stay interesting.
constexpr std::string_view kAlphabet = testfuzz::fuzz_alphabet(
    "0123456789.:,-+eE \tinfnanwrapsatdropdupstucknoisedelayreject"
    "blackout\0\x7f");

const std::vector<std::string>& corpus() {
  static const std::vector<std::string> kCorpus = {
      "wrap:0.05",
      "wrap:0.05,noise:0.02:3",
      "sat:0.1:2.5",
      "drop:0.01,dup:0.01,stuck:0.02:1:4",
      "blackout:0.0125:1:3",
      "delay:0.5,reject:0.25",
      "noise:1:0:1024",
      "wrap:1e-3:0.5:7",
      "",
  };
  return kCorpus;
}

/// parse() must return or throw std::invalid_argument; nothing else.
void expect_contract(const std::string& input) {
  try {
    const FaultPlan plan = FaultPlan::parse(input, 0xfa517u);
    // Success: the plan must round-trip through its own to_string().
    const std::string canon = plan.to_string();
    const FaultPlan again = FaultPlan::parse(canon, 0xfa517u);
    EXPECT_EQ(again.to_string(), canon)
        << "unstable round-trip for input '" << input << "'";
    EXPECT_EQ(plan.empty(), again.empty());
  } catch (const std::invalid_argument&) {
    // Documented rejection path.
  } catch (const std::exception& e) {
    FAIL() << "parse('" << input << "') leaked "
           << typeid(e).name() << ": " << e.what();
  }
}

TEST(FaultPlanFuzz, TenThousandSeededMutations) {
  testfuzz::Mutator m(0x5eedf00dULL, kAlphabet);
  int parsed = 0, rejected = 0;
  for (int i = 0; i < 10'000; ++i) {
    const std::string& base = corpus()[m.below(corpus().size())];
    const std::string input =
        m.below(10) == 0
            ? std::string(m.below(32), static_cast<char>(m.next() & 0xff))
            : m.mutate(base);
    try {
      (void)FaultPlan::parse(input, 1);
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

TEST(FaultPlanFuzz, OverRangeNumericsAreInvalidArgumentNotOutOfRange) {
  // Regression for the fuzz finding: stod/stoi throw std::out_of_range on
  // these, which previously escaped parse()'s documented contract.
  for (const char* input :
       {"wrap:1e999", "wrap:1e-999", "sat:0.1:1e999",
        "wrap:0.1:1:99999999999999999999", "wrap:0.1:1:2147483648",
        "noise:9e307:1:1", "wrap:1e309"}) {
    EXPECT_THROW((void)FaultPlan::parse(input, 1), std::invalid_argument)
        << input;
  }
}

TEST(FaultPlanFuzz, ValidCorpusStillParses) {
  for (const std::string& input : corpus()) {
    EXPECT_NO_THROW((void)FaultPlan::parse(input, 1)) << input;
  }
}

TEST(FaultPlanFuzz, ToStringRoundTripsArbitraryInRangeValuesExactly) {
  testfuzz::Mutator m(0xfa517075ULL, kAlphabet);
  for (int i = 0; i < 2'000; ++i) {
    FaultPlan plan;
    const int n = 1 + static_cast<int>(m.below(kNumFaultClasses));
    for (int k = 0; k < n; ++k) {
      FaultSpec s;
      s.cls = static_cast<FaultClass>(m.below(kNumFaultClasses));
      s.rate = testfuzz::any_double_in(m.next(), 0.0, 1.0);
      s.magnitude = testfuzz::any_double_in(m.next(), 0.0, 1e300);
      s.duration_epochs = 1 + static_cast<int>(m.below(1024));
      plan.set(s);
    }
    const std::string text = plan.to_string();
    const FaultPlan back = FaultPlan::parse(text, 0);
    ASSERT_EQ(back.specs().size(), plan.specs().size()) << text;
    for (std::size_t k = 0; k < plan.specs().size(); ++k) {
      EXPECT_EQ(back.specs()[k].cls, plan.specs()[k].cls) << text;
      EXPECT_EQ(back.specs()[k].rate, plan.specs()[k].rate) << text;
      EXPECT_EQ(back.specs()[k].magnitude, plan.specs()[k].magnitude) << text;
      EXPECT_EQ(back.specs()[k].duration_epochs,
                plan.specs()[k].duration_epochs)
          << text;
    }
  }
}

TEST(FaultPlanFuzz, GrammarEdgeCases) {
  // Accepted: empty entries between commas are skipped.
  EXPECT_NO_THROW((void)FaultPlan::parse(",,wrap:0.1,,", 1));
  // Rejected: bad class, missing rate, too many fields, embedded NUL.
  EXPECT_THROW((void)FaultPlan::parse("warp:0.1", 1), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("wrap", 1), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("wrap:0.1:1:2:3", 1),
               std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse(std::string("wrap:0.1\0x", 10), 1),
               std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("wrap:nan", 1), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("wrap:inf", 1), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("wrap:-0.1", 1), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("sat:0.1:-1", 1), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("sat:0.1:nan", 1),
               std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("wrap:0.1:1:0", 1),
               std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("wrap:0.1:1:1025", 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace sb::fault
