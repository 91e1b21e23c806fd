// The benchmark's own tests: the tail rule, the correctness gate, and the
// names the benchmark reports under.
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "arch/platform.h"
#include "checks.h"
#include "common/percentile.h"
#include "fleet/fleet.h"
#include "hostspeed.h"
#include "metrics.h"
#include "sim/simulation.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::vector<std::uint64_t> one_to(std::uint64_t n) {
  std::vector<std::uint64_t> v;
  for (std::uint64_t i = 1; i <= n; ++i) v.push_back(n + 1 - i);  // unsorted
  return v;
}

TEST(TailRule, PicksHighestLadderPercentileWithTenBeyond) {
  // n = 1000: p99 has rank 990 and 10 beyond; p99.5 has only 5.
  Tail t = tail_with_ten_beyond(one_to(1000));
  EXPECT_DOUBLE_EQ(t.q, 0.99);
  EXPECT_EQ(t.value, 990u);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_EQ(t.count, 1000u);
  EXPECT_EQ(t.value, sb::nearest_rank(one_to(1000), 0.99));

  // n = 999: p99 has rank ceil(989.01) = 990 and only 9 beyond, so p95.
  t = tail_with_ten_beyond(one_to(999));
  EXPECT_DOUBLE_EQ(t.q, 0.95);
  EXPECT_EQ(t.value, 950u);
  EXPECT_EQ(t.beyond, 49u);

  // n = 100000: p99.99 has rank 99990 and 10 beyond.
  t = tail_with_ten_beyond(one_to(100000));
  EXPECT_DOUBLE_EQ(t.q, 0.9999);
  EXPECT_EQ(t.beyond, 10u);
}

TEST(TailRule, FallsBackToMedianOnSmallSamples) {
  Tail t = tail_with_ten_beyond(one_to(20));
  EXPECT_DOUBLE_EQ(t.q, 0.5);
  EXPECT_EQ(t.beyond, 10u);
  t = tail_with_ten_beyond(one_to(7));
  EXPECT_DOUBLE_EQ(t.q, 0.5);
  EXPECT_EQ(t.value, 4u);
  EXPECT_LT(t.beyond, 10u);
  EXPECT_EQ(tail_with_ten_beyond({}).count, 0u);
}

TEST(CalmWindow, HostTimesComeFromTheTenthPercentileAtNominalSpeed) {
  // Twenty operations whose host times are k = 1..20 units, shuffled:
  // nearest-rank p10 is the second fastest, k = 2.
  std::vector<OpRecord> ops(20);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const double k = static_cast<double>((i * 7) % 20 + 1);
    ops[i].simulated_s = 10;
    ops[i].run_s = k;
    ops[i].setup_s = k / 1000;
    ops[i].pass_ns = {static_cast<std::uint64_t>(k * 600), 1,
                      static_cast<std::uint64_t>(k * 600)};
    ops[i].probe_s = HostProbe::kNominalS;
    ops[i].instructions = 1;
    ops[i].energy_j = 1;
  }
  EXPECT_DOUBLE_EQ(host_slowness(ops), 1);
  EXPECT_DOUBLE_EQ(sim_speed(ops), 10.0 / 2);
  Tail tail;
  for (const auto& m : end_to_end(ops, 1.0, tail)) {
    // An operation's pass median is k * 600 ns: k thousandths of a percent
    // of the 60 ms epoch.
    if (m.name == "balancer_pct_epoch_p50" || m.name == "setup_s") {
      EXPECT_DOUBLE_EQ(m.value, 2e-3) << m.name;
    }
  }
  // A host running at half speed takes twice the probe time; host times
  // are reported at nominal speed.
  for (auto& op : ops) op.probe_s *= 2;
  EXPECT_DOUBLE_EQ(host_slowness(ops), 2);
  EXPECT_DOUBLE_EQ(sim_speed(ops), 10.0 / 2 * 2);
  for (const auto& m : end_to_end(ops, 1.0, tail)) {
    if (m.name == "setup_s") {
      EXPECT_DOUBLE_EQ(m.value, 1e-3);
    }
  }
  // Below ten operations the fastest one is read.
  ops.resize(5);
  EXPECT_DOUBLE_EQ(sim_speed(ops), 10.0 / 1 * 2);
}

sb::sim::SimulationResult small_run(sb::TimeNs window) {
  sb::sim::SimulationConfig cfg;
  cfg.duration = window;
  cfg.seed = 7;
  sb::sim::Simulation sim(sb::arch::Platform::quad_heterogeneous(), cfg);
  sim.add_benchmark("swaptions", 3);
  sim.add_benchmark("IMB_MTHI", 2);
  return sim.run();
}

TEST(Checker, AcceptsASoundRunAndRejectsEachCorruption) {
  const sb::TimeNs window = sb::milliseconds(300);
  const auto good = small_run(window);
  ASSERT_TRUE(check_run(good, window).empty());

  auto r = good;
  r.cores[1].instructions += 1;  // sum over cores != total
  EXPECT_EQ(check_run(r, window).size(), 1u);

  r = good;
  r.threads[0].instructions += 1;  // sum over threads != total
  EXPECT_EQ(check_run(r, window).size(), 1u);

  r = good;
  r.cores[2].energy_j *= 1.0 + 1e-6;  // energy not conserved
  EXPECT_EQ(check_run(r, window).size(), 1u);

  r = good;
  r.cores[0].sleep_ns = r.simulated - r.cores[0].busy_ns + 1;
  EXPECT_EQ(check_run(r, window).size(), 1u);

  EXPECT_EQ(check_run(good, window + 1).size(), 1u);  // wrong window
}

TEST(Checker, RejectsFleetJobAccountingErrors) {
  sb::fleet::FleetConfig cfg;
  cfg.nodes = 2;
  cfg.rate_hz = 400;
  cfg.duration = sb::milliseconds(100);
  cfg.step_jobs = 1;
  sb::fleet::FleetSimulation fleet(cfg,
                                   {sb::arch::Platform::quad_heterogeneous()});
  const auto good = fleet.run();
  ASSERT_GT(good.jobs_arrived, 0u);
  ASSERT_TRUE(check_fleet(good, cfg.duration).empty());

  auto r = good;
  r.jobs_arrived += 1;  // a job that is neither dispatched nor queued
  EXPECT_FALSE(check_fleet(r, cfg.duration).empty());

  r = good;
  r.jobs_completed = r.jobs_dispatched + 1;
  EXPECT_FALSE(check_fleet(r, cfg.duration).empty());

  r = good;
  r.node_results[1].cores[0].instructions += 1;
  EXPECT_FALSE(check_fleet(r, cfg.duration).empty());
}

TEST(Digest, SeesSimulatedStatisticsOnly) {
  const auto a = small_run(sb::milliseconds(120));
  auto b = a;
  b.avg_optimize_us += 5;  // host-time field: not part of the digest
  EXPECT_EQ(digest(a), digest(b));
  b.threads[0].instructions += 1;
  EXPECT_NE(digest(a), digest(b));
}

TEST(Spans, SelfTimeSubtractsChildren) {
  SpanRecorder rec;
  const auto t0 = Clock::now();
  const auto at = [&](int ns) { return t0 + std::chrono::nanoseconds(ns); };
  const int root = rec.add("op", at(0), at(1000), -1);
  const int run = rec.add("sim.run", at(100), at(900), root);
  rec.add("core.on_balance", at(200), at(300), run);
  rec.add("core.on_balance", at(400), at(450), run);
  const auto totals = totals_by_root(rec.spans());
  ASSERT_EQ(totals.size(), 1u);
  EXPECT_NEAR(totals[0].self_s.at("sim.run"), 650e-9, 1e-15);
  EXPECT_NEAR(totals[0].total_s.at("core.on_balance"), 150e-9, 1e-15);
  std::ostringstream json;
  rec.write_chrome_json(json);
  EXPECT_NE(json.str().find("\"parent\":1"), std::string::npos);
}

/// Metric and workload names must match [A-Za-z0-9_.-]+.
bool valid_name(std::string_view name) {
  if (name.empty()) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

std::string read_benchmark_json() {
  std::ifstream in(PERFBENCH_JSON);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(Names, EveryReportedNameIsValidUniqueAndDeclared) {
  const std::string declared = read_benchmark_json();
  ASSERT_FALSE(declared.empty()) << "cannot read " << PERFBENCH_JSON;
  auto is_declared = [&](const std::string& name) {
    return declared.find("\"name\": \"" + name + "\"") != std::string::npos;
  };

  const char* kUnitChars =
      "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_/%.-";
  std::set<std::string> seen;
  for (const auto& w : workloads()) {
    EXPECT_TRUE(valid_name(w.name)) << w.name;
    EXPECT_TRUE(seen.insert(w.name).second) << w.name;
    EXPECT_TRUE(is_declared(w.name)) << w.name;
  }
  OpRecord op;
  op.simulated_s = 1;
  op.run_s = 1;
  op.probe_s = HostProbe::kNominalS;
  op.instructions = 1;
  op.energy_j = 1;
  Tail tail;
  const auto e2e = end_to_end({op}, 1.0, tail);
  const auto layers = per_layer({op}, {RootTotals{}}, 1.0);
  for (const auto* list : {&e2e, &layers}) {
    for (const auto& m : *list) {
      EXPECT_TRUE(valid_name(m.name)) << m.name;
      EXPECT_TRUE(seen.insert(m.name).second) << m.name;
      EXPECT_TRUE(is_declared(m.name)) << m.name;
      EXPECT_EQ(m.unit.find_first_not_of(kUnitChars), std::string::npos)
          << m.unit;
    }
  }
  // ...and nothing is declared that the benchmark does not report.
  std::size_t declared_names = 0;
  for (auto at = declared.find("\"name\":"); at != std::string::npos;
       at = declared.find("\"name\":", at + 1)) {
    ++declared_names;
  }
  EXPECT_EQ(declared_names, seen.size());

  EXPECT_FALSE(valid_name(""));
  EXPECT_FALSE(valid_name("p99 latency"));
  EXPECT_FALSE(valid_name("a/b"));
}

}  // namespace
}  // namespace perfbench
