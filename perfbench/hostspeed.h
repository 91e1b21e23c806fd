// Host-speed probe: a fixed reference computation, independent of the
// library, timed between a run's operations.
//
// The shared host's speed drifts over minutes with neighbour load, by up to
// 1.8x between consecutive runs, moving every host time of a run together.
// The same reference computation, timed in the same process between the
// same operations, measures that drift, and the run expresses its host
// times at the probe's nominal speed (see metrics.h). The reference mixes a
// pointer chase through an 8 MiB random cycle (latency to the last-level
// cache and memory) with a branchy integer loop over a 1 MiB table (the core
// and its private caches), two kinds of work the simulator's event loop and
// balancer both do.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

class HostProbe {
 public:
  /// Runs the reference once and returns its host time in seconds. The
  /// first call allocates the reference's 9 MiB, so a run reads its peak
  /// RSS before it.
  double run_s();

  /// The reference's host time on an unloaded 4-vCPU virtual machine of the
  /// kind the benchmark was tuned on: the speed host times are expressed at.
  static constexpr double kNominalS = 0.010;

 private:
  std::vector<std::uint32_t> cycle_;  // one random cycle through all slots
  std::vector<std::uint32_t> table_;
  std::uint64_t sink_ = 0;
};

}  // namespace perfbench
