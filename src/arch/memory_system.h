// Shared-bus main-memory model.
//
// The paper's platform connects all cores to main memory through a shared
// bus (§5). We model bus contention analytically: each core reports its
// recent miss bandwidth; the effective memory latency seen by every core is
// the base DRAM latency inflated by a convex function of total bus
// utilization. This couples cores (a Huge core thrashing memory slows the
// Small cores) without needing per-transaction simulation.
//
// The kernel reads the bus latency on every dispatch, so the total is not
// re-summed over all cores per read. Cores are grouped into fixed blocks of
// kBlockCores; a write marks its block stale, and a read re-adds only the
// stale blocks (each in core order, from 0.0) and then the block sums in
// block order. Up to kBlockCores cores there is one block, so the total is
// the plain in-order sum bit for bit; above that the grouping of the adds
// differs from a flat loop by a few ulps.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace sb::arch {

class SharedBus {
 public:
  struct Config {
    double base_latency_ns = 80.0;   // unloaded DRAM round trip
    double bandwidth_gbps = 12.8;    // saturation bandwidth
    double contention_exponent = 2.0;
    double max_inflation = 4.0;      // latency factor ceiling at saturation
    double line_bytes = 64.0;        // bytes transferred per L2 miss
  };

  explicit SharedBus(int num_cores) : SharedBus(num_cores, Config()) {}
  SharedBus(int num_cores, Config config);

  /// Cores per cached partial sum; kMaxCores fits in one 32-bit stale mask.
  static constexpr int kBlockCores = 32;

  /// Records that core `c` generated `misses` memory transactions over the
  /// last `window` of simulated time (a scheduling segment). Throws
  /// std::out_of_range for a bad core before touching any state.
  void record_traffic(CoreId c, double misses, TimeNs window);

  /// Utilization in [0,1]: total demanded bandwidth / capacity (clamped).
  double utilization() const;

  /// Effective memory latency including contention, in nanoseconds.
  double effective_latency_ns() const;

  /// Latency inflation factor in [1, max_inflation].
  double inflation() const;

  const Config& config() const { return config_; }

  /// Forgets traffic history (e.g., between experiment repetitions).
  void reset();

 private:
  static_assert(kMaxCores <= kBlockCores * 32, "one stale bit per block");

  Config config_;
  std::vector<double> core_bw_gbps_;  // exponentially averaged per core
  // Read cache: the in-order sum of each block, the total over blocks, and
  // one bit per block whose sum is stale. A read refreshes it, so one bus
  // must not be read from two threads at once (each kernel owns its bus).
  mutable std::vector<double> block_sum_;
  mutable double total_gbps_ = 0.0;
  mutable std::uint32_t stale_ = 0;
};

}  // namespace sb::arch
