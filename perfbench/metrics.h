// Reduction of a run's operation records to the benchmark's named metrics.
#pragma once

#include <string>
#include <vector>

#include "checks.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// How much slower than nominal the host ran: the run's calm-window
/// HostProbe time ÷ HostProbe::kNominalS. Every host time the benchmark
/// reports is divided by it, that is, expressed at the nominal host speed.
double host_slowness(const std::vector<OpRecord>& ops);

/// Simulated seconds per nominal host second of one operation's run call,
/// in the run's calm window (see metrics.cc).
double sim_speed(const std::vector<OpRecord>& ops);

/// The end-to-end metrics of an untraced run (BENCHMARK.json order).
/// `tail` receives the tail rule's result on one operation's passes (every
/// operation has the same pass count). Host times are read per operation and
/// reported from the run's calm window.
std::vector<Metric> end_to_end(const std::vector<OpRecord>& ops,
                               double peak_rss_mb, Tail& tail);

/// The per-layer metrics of a traced run: host times from its span tree
/// (one root per operation), counts and the policy's phase sums from the
/// records. Host times are calm-window values like the end-to-end ones.
/// Layers a workload does not exercise, or that the fleet hides from
/// outside, read 0.
std::vector<Metric> per_layer(const std::vector<OpRecord>& ops,
                              const std::vector<RootTotals>& spans,
                              double trace_speed_ratio);

}  // namespace perfbench
