#include "fleet/fleet_config.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/spec.h"
#include "grammar_fuzz.h"

namespace sb::fleet {
namespace {

TEST(FleetConfig, ParseNodeCountOnlyKeepsDefaults) {
  const FleetConfig cfg = FleetConfig::parse("6");
  EXPECT_EQ(cfg.nodes, 6);
  EXPECT_EQ(cfg.policy, DispatchPolicy::kEnergyAware);
  EXPECT_DOUBLE_EQ(cfg.rate_hz, 300.0);
}

TEST(FleetConfig, ParseFullGrammar) {
  const FleetConfig cfg = FleetConfig::parse("8:rr:450.5");
  EXPECT_EQ(cfg.nodes, 8);
  EXPECT_EQ(cfg.policy, DispatchPolicy::kRoundRobin);
  EXPECT_DOUBLE_EQ(cfg.rate_hz, 450.5);
}

TEST(FleetConfig, PolicySpellings) {
  EXPECT_EQ(dispatch_policy_from("rr"), DispatchPolicy::kRoundRobin);
  EXPECT_EQ(dispatch_policy_from("round-robin"), DispatchPolicy::kRoundRobin);
  EXPECT_EQ(dispatch_policy_from("roundrobin"), DispatchPolicy::kRoundRobin);
  EXPECT_EQ(dispatch_policy_from("least"), DispatchPolicy::kLeastLoaded);
  EXPECT_EQ(dispatch_policy_from("least-loaded"), DispatchPolicy::kLeastLoaded);
  EXPECT_EQ(dispatch_policy_from("energy"), DispatchPolicy::kEnergyAware);
  EXPECT_EQ(dispatch_policy_from("energy-aware"), DispatchPolicy::kEnergyAware);
  EXPECT_THROW(dispatch_policy_from("warmest"), std::invalid_argument);
  EXPECT_THROW(dispatch_policy_from(""), std::invalid_argument);
}

TEST(FleetConfig, ParseErrors) {
  EXPECT_THROW(FleetConfig::parse(""), std::invalid_argument);
  EXPECT_THROW(FleetConfig::parse("0"), std::invalid_argument);
  EXPECT_THROW(FleetConfig::parse("1025"), std::invalid_argument);
  EXPECT_THROW(FleetConfig::parse("x"), std::invalid_argument);
  EXPECT_THROW(FleetConfig::parse("-4"), std::invalid_argument);
  EXPECT_THROW(FleetConfig::parse("4:warmest"), std::invalid_argument);
  EXPECT_THROW(FleetConfig::parse("4:rr:"), std::invalid_argument);
  EXPECT_THROW(FleetConfig::parse("4:rr:-5"), std::invalid_argument);
  EXPECT_THROW(FleetConfig::parse("4:rr:nan"), std::invalid_argument);
  EXPECT_THROW(FleetConfig::parse("4:rr:1e9"), std::invalid_argument);
  EXPECT_THROW(FleetConfig::parse("4:rr:300:extra"), std::invalid_argument);
}

TEST(FleetConfig, CanonicalRoundTripsThroughParse) {
  for (const char* text : {"1", "4:rr", "16:least:120.25", "1024:energy:1"}) {
    const FleetConfig a = FleetConfig::parse(text);
    const FleetConfig b = FleetConfig::parse(a.canonical());
    EXPECT_EQ(a.nodes, b.nodes) << text;
    EXPECT_EQ(a.policy, b.policy) << text;
    EXPECT_DOUBLE_EQ(a.rate_hz, b.rate_hz) << text;
    EXPECT_EQ(a.canonical(), b.canonical()) << text;
  }
}

TEST(FleetConfig, CanonicalRoundTripFuzz) {
  Rng rng(0xf1ee7);
  const DispatchPolicy policies[] = {DispatchPolicy::kRoundRobin,
                                     DispatchPolicy::kLeastLoaded,
                                     DispatchPolicy::kEnergyAware};
  for (int i = 0; i < 500; ++i) {
    FleetConfig cfg;
    cfg.nodes = 1 + static_cast<int>(rng.next_u64() % 1024);
    cfg.policy = policies[rng.next_u64() % 3];
    // Any in-range rate, down to the smallest positive double.
    cfg.rate_hz = i == 0 ? 1e-7
                         : testfuzz::any_double_in(rng.next_u64(),
                                                   spec::kAboveZero, 1e7);
    const FleetConfig back = FleetConfig::parse(cfg.canonical());
    EXPECT_EQ(back.nodes, cfg.nodes);
    EXPECT_EQ(back.policy, cfg.policy);
    EXPECT_EQ(back.rate_hz, cfg.rate_hz) << cfg.canonical();
  }
  EXPECT_EQ(FleetConfig::parse("2:rr:1e-7").canonical(), "2:rr:1e-07");
}

TEST(FleetConfig, ValidateRejectsBadApiFields) {
  const auto bad = [](auto mutate) {
    FleetConfig cfg;
    mutate(cfg);
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
  };
  bad([](FleetConfig& c) { c.nodes = 0; });
  bad([](FleetConfig& c) { c.rate_hz = 0; });
  bad([](FleetConfig& c) { c.duration = 0; });
  bad([](FleetConfig& c) { c.quantum = 0; });
  bad([](FleetConfig& c) { c.quantum = c.duration + 1; });
  bad([](FleetConfig& c) { c.node_policy = "cfs"; });
  bad([](FleetConfig& c) { c.burst_factor = 0.5; });
  bad([](FleetConfig& c) { c.zipf_theta = -1; });
  bad([](FleetConfig& c) { c.load_cap = 0.1; });
  bad([](FleetConfig& c) { c.consolidation_bias = -0.5; });
  bad([](FleetConfig& c) { c.obs.audit = true; });
  FleetConfig ok;
  EXPECT_NO_THROW(ok.validate());
}

}  // namespace
}  // namespace sb::fleet
