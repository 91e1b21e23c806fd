// The one export writer: which collectors a set of exports switches on,
// which runs each export sees, the merge order, and the error path.
#include "obs/exports.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/audit_writer.h"
#include "obs/timeseries.h"
#include "obs/trace.h"

namespace sb::obs {
namespace {

/// A run with the given collectors on, each holding one recognisable
/// record, stamped with `run` and `label` the way the runner stamps them.
RunObs make_run(int run, const std::string& label, ObsConfig cfg) {
  Sink sink(cfg);
  sink.begin_epoch(0, 1000);
  sink.metrics().counter(label + ".count").add(1);
  if (sink.tracer() != nullptr) sink.tracer()->span(label, 1000, 50, 0);
  if (sink.timeseries() != nullptr) {
    sink.timeseries()->begin_frame(10'000'000);
    sink.timeseries()->record(label, static_cast<double>(run));
    sink.complete_frame();
  }
  RunObs r = sink.snapshot(label);
  r.run = run;
  return r;
}

ObsConfig collect(bool metrics, bool trace, bool audit, bool sample) {
  ObsConfig cfg;
  cfg.metrics = metrics;
  cfg.trace = trace;
  cfg.audit = audit;
  cfg.timeseries.enabled = sample;
  return cfg;
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

template <typename Write>
std::string render(Write write) {
  std::ostringstream os;
  write(os);
  return os.str();
}

/// Export paths in the test temp directory, removed afterwards.
class ExportsFiles : public ::testing::Test {
 protected:
  std::string path(const std::string& name) {
    paths_.push_back(::testing::TempDir() + "sb_exports_test_" + name);
    std::remove(paths_.back().c_str());
    return paths_.back();
  }
  void TearDown() override {
    for (const auto& p : paths_) std::remove(p.c_str());
  }

 private:
  std::vector<std::string> paths_;
};

TEST(Exports, ConfigSwitchesOnExactlyTheCollectorsTheExportsRead) {
  EXPECT_FALSE(Exports{}.config().enabled());

  Exports e;
  e.trace = "t.json";
  ObsConfig c = e.config();
  EXPECT_TRUE(c.trace);
  EXPECT_FALSE(c.metrics || c.audit || c.timeseries.enabled);

  e = Exports{};
  e.metrics = "m.json";
  c = e.config();
  EXPECT_TRUE(c.metrics);
  EXPECT_FALSE(c.trace || c.audit || c.timeseries.enabled);

  e = Exports{};
  e.prom = "p.prom";  // the exposition snapshot reads the registries
  c = e.config();
  EXPECT_TRUE(c.metrics);
  EXPECT_FALSE(c.trace || c.audit || c.timeseries.enabled);

  e = Exports{};
  e.audit = "a.csv";
  c = e.config();
  EXPECT_TRUE(c.audit);
  EXPECT_FALSE(c.trace || c.metrics || c.timeseries.enabled);

  e = Exports{};
  e.timeseries = "ts.csv";
  c = e.config();
  EXPECT_TRUE(c.timeseries.enabled);
  EXPECT_FALSE(c.trace || c.metrics || c.audit);
  EXPECT_TRUE(c.slo.empty());
}

TEST_F(ExportsFiles, EachExportSeesOnlyTheRunsThatRecordedItInRunOrder) {
  const RunObs traced =
      make_run(0, "traced", collect(true, true, false, false));
  const RunObs audited =
      make_run(1, "audited", collect(true, false, true, false));
  const RunObs sampled =
      make_run(2, "sampled", collect(false, false, false, true));
  // Out of run order, with a null entry: the writer skips the null and the
  // format writers restore run order.
  const std::vector<const RunObs*> runs = {&sampled, nullptr, &audited,
                                           &traced};

  Exports e;
  e.trace = path("trace.json");
  e.metrics = path("metrics.json");
  e.audit = path("audit.csv");
  e.timeseries = path("ts.csv");
  e.prom = path("metrics.prom");
  std::ostringstream log;
  e.write(runs, log);

  EXPECT_EQ(slurp(e.trace), render([&](std::ostream& os) {
              write_chrome_trace(os, {&traced});
            }));
  EXPECT_EQ(slurp(e.metrics),
            merge_metrics({&traced, &audited}).to_json() + "\n");
  EXPECT_EQ(slurp(e.audit),
            render([&](std::ostream& os) { write_audit(os, {&audited}); }));
  EXPECT_EQ(slurp(e.timeseries), render([&](std::ostream& os) {
              write_timeseries(os, {&sampled});
            }));
  EXPECT_EQ(slurp(e.prom), render([&](std::ostream& os) {
              write_prometheus(os, {&traced, &audited});
            }));
  // The unmetered run's registry stays out of the merged metrics.
  EXPECT_EQ(slurp(e.metrics).find("sampled.count"), std::string::npos);

  EXPECT_EQ(log.str(),
            "trace written to " + e.trace + "\n" +
                "metrics written to " + e.metrics + "\n" +
                "audit export written to " + e.audit + "\n" +
                "timeseries written to " + e.timeseries + "\n" +
                "prometheus snapshot written to " + e.prom + "\n");
}

TEST_F(ExportsFiles, JsonTimeseriesPathSelectsTheJsonRendering) {
  const RunObs sampled =
      make_run(0, "sampled", collect(false, false, false, true));
  Exports e;
  e.timeseries = path("ts.json");
  std::ostringstream log;
  e.write({&sampled}, log);
  EXPECT_EQ(slurp(e.timeseries), render([&](std::ostream& os) {
              write_timeseries_json(os, {&sampled});
            }));
}

TEST_F(ExportsFiles, NoPathsWriteNothing) {
  const RunObs r = make_run(0, "r", collect(true, true, true, true));
  std::ostringstream log;
  Exports{}.write({&r}, log);
  EXPECT_TRUE(log.str().empty());
}

TEST(Exports, UnwritablePathThrowsNamingIt) {
  const RunObs r = make_run(0, "r", collect(true, true, true, true));
  const std::string bad = "/nonexistent-dir/export.out";
  for (std::string Exports::*field :
       {&Exports::trace, &Exports::metrics, &Exports::audit,
        &Exports::timeseries, &Exports::prom}) {
    Exports e;
    e.*field = bad;
    std::ostringstream log;
    try {
      e.write({&r}, log);
      ADD_FAILURE() << "no throw for " << bad;
    } catch (const std::runtime_error& err) {
      EXPECT_NE(std::string(err.what()).find(bad), std::string::npos)
          << err.what();
    }
    EXPECT_TRUE(log.str().empty());
  }
}

TEST(Exports, TraceFromEnvFillsOnlyAnEmptyTracePath) {
  ASSERT_EQ(setenv("SB_TRACE", "env.json", 1), 0);
  Exports e;
  e.trace_from_env();
  EXPECT_EQ(e.trace, "env.json");
  e.trace = "flag.json";
  e.trace_from_env();
  EXPECT_EQ(e.trace, "flag.json");
  ASSERT_EQ(unsetenv("SB_TRACE"), 0);
  Exports off;
  off.trace_from_env();
  EXPECT_TRUE(off.trace.empty());
}

TEST(Exports, WriteMetricsMergesMeteredRunsOnOneLine) {
  const RunObs a = make_run(0, "a", collect(true, false, false, false));
  const RunObs b = make_run(1, "b", collect(true, false, false, false));
  const RunObs quiet =
      make_run(2, "quiet", collect(false, true, false, false));
  std::ostringstream os;
  write_metrics(os, {&b, &quiet, nullptr, &a});
  EXPECT_EQ(os.str(), merge_metrics({&a, &b}).to_json() + "\n");
}

}  // namespace
}  // namespace sb::obs
