// The benchmark's workloads and the outside-in record of one operation.
//
// An operation is one fixed window of simulated time on one workload, built
// through the library's public façade (sim::Simulation,
// sim::smartbalance_factory, os::LoadBalancer, fleet::FleetSimulation) and
// timed from outside around each call. Host timings land in the record next
// to the simulated statistics and the correctness verdict.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "trace.h"

namespace perfbench {

enum class Shape { kQuadMix, kGen1024Sharded, kFleet64 };

struct Workload {
  const char* name;
  Shape shape;
  /// Simulated window of one operation.
  sb::TimeNs window;
};

/// Every workload, in BENCHMARK.json order.
const std::vector<Workload>& workloads();
/// nullptr when `name` is not a workload.
const Workload* find_workload(std::string_view name);

/// How an operation runs: the input seed, the pinned worker count for shard
/// annealing and fleet node stepping, and (traced runs only) the recorder
/// that receives one span tree per operation.
struct OpContext {
  std::uint64_t seed = 1;
  int workers = 1;
  SpanRecorder* spans = nullptr;
};

/// Everything one operation measured. Host times are seconds of
/// steady_clock; simulated quantities come from the library's results.
struct OpRecord {
  /// Correctness-gate violations (empty when the operation is sound).
  std::vector<std::string> failures;
  std::uint64_t digest = 0;

  // --- Host time ---
  double setup_s = 0;  // everything before the run call
  double run_s = 0;    // Simulation::run / FleetSimulation::run
  double probe_s = 0;  // median HostProbe time right after the operation

  // --- Simulated results ---
  double simulated_s = 0;
  double instructions = 0;
  double energy_j = 0;
  double wake_p99_us = 0;  // kernel wake-to-run (single node)
  double job_p99_ms = 0;   // arrival-to-run (fleet)
  /// Balancer host ns per pass: every outside-timed on_balance call on a
  /// single node; the per-node mean pass time on the fleet, whose node
  /// policies are not reachable from outside.
  std::vector<std::uint64_t> pass_ns;

  // --- Kernel counts (summed over nodes on the fleet) ---
  std::uint64_t dispatches = 0;
  std::uint64_t wakes = 0;
  std::uint64_t migrations = 0;

  // --- Balancer (single node) ---
  std::uint64_t passes = 0;
  std::uint64_t useful_passes = 0;    // passes that migrated >= 1 thread
  std::uint64_t pass_migrations = 0;  // kernel migrations inside on_balance
  double sense_s = 0;                 // the policy's public phase sums
  double predict_s = 0;
  double optimize_s = 0;              // includes the exchange phase
  double exchange_s = 0;
  double shard_cpu_s = 0;             // summed per-shard SA CPU
  int shard_workers = 0;

  // --- Fleet ---
  std::uint64_t jobs_arrived = 0;
  std::uint64_t jobs_dispatched = 0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t deferrals = 0;
  double node_balancer_us = 0;  // pass-weighted mean node phase time
};

/// Runs one operation. Library exceptions propagate to the caller.
OpRecord run_operation(const Workload& w, const OpContext& ctx);

}  // namespace perfbench
