// Correctness gate and statistics shared by every benchmark run.
//
// Every operation (one simulated window) is checked against conservation
// laws read from the library's public results before any number it produced
// is reported. The simulated statistics are also folded into a digest: a
// deterministic simulator must give the same digest for every repetition of
// one seed, traced or not.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "fleet/fleet.h"
#include "sim/metrics.h"

namespace perfbench {

/// Percentile ladder the tail rule picks from, ascending.
inline constexpr double kTailLadder[] = {0.50,  0.90,   0.95,  0.99,
                                         0.995, 0.999, 0.9995, 0.9999};

/// A nearest-rank tail: the percentile chosen, its value, and how many
/// samples lie strictly beyond its rank.
struct Tail {
  double q = 0;
  std::uint64_t value = 0;
  std::uint64_t beyond = 0;
  std::uint64_t count = 0;
};

/// The highest ladder percentile whose nearest rank leaves at least ten
/// samples beyond it (the benchmark's tail rule). With fewer than 20 samples
/// no percentile qualifies and the median is returned with beyond < 10.
Tail tail_with_ten_beyond(const std::vector<std::uint64_t>& sample);

/// Conservation checks on one single-node run over a `window` of simulated
/// time. Returns one message per violated law (empty when the run is sound):
///   sum of per-core instructions == total == sum of per-thread instructions;
///   sum of per-core energy == total energy (relative 1e-9);
///   busy + sleep <= simulated time, for every core;
///   simulated time == the requested window.
std::vector<std::string> check_run(const sb::sim::SimulationResult& r,
                                   sb::TimeNs window);

/// Fleet checks: every node passes check_run; fleet totals equal the sums
/// over nodes; arrived == dispatched + still queued; completed <=
/// dispatched.
std::vector<std::string> check_fleet(const sb::fleet::FleetResult& r,
                                     sb::TimeNs window);

/// FNV-1a digest of the simulated statistics (never of host timings).
std::uint64_t digest(const sb::sim::SimulationResult& r);
std::uint64_t digest(const sb::fleet::FleetResult& r);

}  // namespace perfbench
