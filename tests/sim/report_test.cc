#include "sim/report.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <iomanip>
#include <memory>
#include <sstream>

#include "mini_json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "os/vanilla_balancer.h"
#include "sim/simulation.h"

namespace sb::sim {
namespace {

/// Minimal structural JSON validation (balanced delimiters outside strings,
/// legal escapes) — enough to catch writer bugs without a JSON dependency.
bool structurally_valid_json(const std::string& s) {
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') {
        ++i;  // skip escaped char
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_string;
}

SimulationResult sample_result() {
  SimulationConfig cfg;
  cfg.duration = milliseconds(120);
  cfg.thermal_enabled = true;
  Simulation s(arch::Platform::quad_heterogeneous(), cfg);
  s.set_balancer(std::make_unique<os::VanillaBalancer>());
  s.add_benchmark("ferret", 3);
  return s.run();
}

TEST(Report, StructurallyValidAndComplete) {
  const std::string json = to_json(sample_result());
  EXPECT_TRUE(structurally_valid_json(json)) << json.substr(0, 200);
  for (const char* key :
       {"\"policy\"", "\"instructions\"", "\"energy_j\"", "\"ips_per_watt\"",
        "\"cores\"", "\"threads\"", "\"balancer_overhead_us\"",
        "\"thermal\"", "\"avg_sched_latency_us\"", "\"utilization\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  // 4 core objects and 3 thread objects.
  std::size_t cores = 0, pos = 0;
  while ((pos = json.find("\"type\":", pos)) != std::string::npos) {
    ++cores;
    ++pos;
  }
  EXPECT_EQ(cores, 4u);
}

/// Checks one written number against the double it came from. The writer
/// prints shortest round-trip text, so it must read back bit-exact; `lossy`
/// counts the values the former 12-significant-digit spelling rounded.
void expect_exact(const testjson::Value& written, double v, const char* key,
                  int* lossy) {
  EXPECT_EQ(written.num(), v) << key;
  std::ostringstream old;
  old << std::setprecision(12) << v;
  if (std::strtod(old.str().c_str(), nullptr) != v) ++*lossy;
}

TEST(Report, EveryNumberReadsBackExactly) {
  const SimulationResult r = sample_result();
  const auto doc = testjson::parse(to_json(r));
  int lossy = 0;
  expect_exact(doc.at("simulated_ms"), to_millis(r.simulated), "simulated_ms",
               &lossy);
  expect_exact(doc.at("energy_j"), r.energy_j, "energy_j", &lossy);
  expect_exact(doc.at("ips"), r.ips, "ips", &lossy);
  expect_exact(doc.at("watts"), r.watts, "watts", &lossy);
  expect_exact(doc.at("ips_per_watt"), r.ips_per_watt, "ips_per_watt",
               &lossy);
  expect_exact(doc.at("avg_sched_latency_us"), r.avg_sched_latency_us,
               "avg_sched_latency_us", &lossy);
  expect_exact(doc.at("thermal").at("max_temp_c"), r.max_temp_c,
               "max_temp_c", &lossy);
  ASSERT_EQ(doc.at("cores").size(), r.cores.size());
  for (std::size_t i = 0; i < r.cores.size(); ++i) {
    const auto& c = doc.at("cores").at(i);
    expect_exact(c.at("energy_j"), r.cores[i].energy_j, "core energy_j",
                 &lossy);
    expect_exact(c.at("utilization"), r.cores[i].utilization,
                 "core utilization", &lossy);
    expect_exact(doc.at("thermal").at("final_temp_c").at(i),
                 r.final_temp_c[i], "final_temp_c", &lossy);
  }
  ASSERT_EQ(doc.at("threads").size(), r.threads.size());
  for (std::size_t i = 0; i < r.threads.size(); ++i) {
    const auto& t = doc.at("threads").at(i);
    expect_exact(t.at("energy_j"), r.threads[i].energy_j, "thread energy_j",
                 &lossy);
    expect_exact(t.at("avg_wait_us"), r.threads[i].avg_wait_us,
                 "thread avg_wait_us", &lossy);
  }
  EXPECT_GT(lossy, 0) << "no value needed more than 12 digits; the check "
                         "shows nothing";
}

TEST(Report, EscapesStrings) {
  SimulationResult r;
  r.label = "say \"hi\"";
  r.policy = "a\\b";
  r.cores.push_back({});
  r.cores[0].type_name = "line\nbreak\ttab";
  r.threads.push_back({});
  r.threads[0].name = std::string(1, '\x01');
  const std::string json = to_json(r);
  EXPECT_NE(json.find("\"label\":\"say \\\"hi\\\"\""), std::string::npos);
  EXPECT_NE(json.find("\"policy\":\"a\\\\b\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"line\\nbreak\\ttab\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"\\u0001\""), std::string::npos);
}

TEST(Report, LabelSpelledAlikeInEveryExport) {
  // --json, --metrics and --trace all write strings through one escaper:
  // the same label has the same spelling in each and parses back whole.
  const std::string label = "q\"b\\n\nt\tc\x01";
  const std::string spelled = "\"q\\\"b\\\\n\\nt\\tc\\u0001\"";

  SimulationResult r;
  r.label = label;
  const std::string report = to_json(r);
  EXPECT_NE(report.find("\"label\":" + spelled), std::string::npos) << report;
  EXPECT_EQ(testjson::parse(report).at("label").str(), label);

  obs::MetricsRegistry m;
  m.counter(label).add(3);
  const std::string metrics = m.to_json();
  EXPECT_NE(metrics.find(spelled + ":3"), std::string::npos) << metrics;
  EXPECT_EQ(testjson::parse(metrics).at("counters").at(label).num(), 3.0);

  obs::EpochTracer tracer(16);
  tracer.span(label, 0, 1000, 0);
  obs::RunObs run;
  run.label = label;
  run.trace_enabled = true;
  run.trace = tracer.snapshot();
  std::ostringstream trace;
  obs::write_chrome_trace(trace, {&run});
  EXPECT_NE(trace.str().find("{\"name\":" + spelled), std::string::npos)
      << trace.str();
  const auto events = testjson::parse(trace.str()).at("traceEvents");
  EXPECT_EQ(events.at(0).at("args").at("name").str(), label);
  EXPECT_EQ(events.at(1).at("name").str(), label);
}

TEST(Report, NonFiniteBecomesNull) {
  SimulationResult r;
  r.label = "x";
  r.ips = std::numeric_limits<double>::infinity();
  const std::string json = to_json(r);
  EXPECT_NE(json.find("\"ips\":null"), std::string::npos);
  EXPECT_TRUE(structurally_valid_json(json));
}

TEST(Report, EmptyResultStillValid) {
  const std::string json = to_json(SimulationResult{});
  EXPECT_TRUE(structurally_valid_json(json));
  EXPECT_NE(json.find("\"cores\":[]"), std::string::npos);
  EXPECT_NE(json.find("\"threads\":[]"), std::string::npos);
  EXPECT_EQ(json.find("\"thermal\""), std::string::npos)
      << "thermal block only present when enabled";
}

}  // namespace
}  // namespace sb::sim
