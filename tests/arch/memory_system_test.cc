#include "arch/memory_system.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "common/rng.h"

namespace sb::arch {
namespace {

/// Mirror of the bus's per-core smoothing, summed two ways: `flat` is the
/// plain in-order loop over all cores, `blocked` re-adds each block of
/// SharedBus::kBlockCores cores in core order and then the block sums in
/// block order.
struct ReferenceBus {
  explicit ReferenceBus(int n, SharedBus::Config cfg)
      : config(cfg), bw(static_cast<std::size_t>(n), 0.0) {}

  void record(CoreId c, double misses, TimeNs window) {
    if (window <= 0) return;
    const double gbps =
        misses * config.line_bytes / static_cast<double>(window);
    auto& slot = bw[static_cast<std::size_t>(c)];
    slot = (1.0 - 0.3) * slot + 0.3 * gbps;
  }
  double flat() const {
    double total = 0.0;
    for (double v : bw) total += v;
    return total / config.bandwidth_gbps;
  }
  double blocked() const {
    const std::size_t k = SharedBus::kBlockCores;
    double total = 0.0;
    for (std::size_t b = 0; b < bw.size(); b += k) {
      double sum = 0.0;
      for (std::size_t c = b; c < std::min(bw.size(), b + k); ++c) sum += bw[c];
      total += sum;
    }
    return total / config.bandwidth_gbps;
  }

  SharedBus::Config config;
  std::vector<double> bw;
};

/// Capacity far above any demand below, so utilization never clamps and
/// every comparison sees the raw sum.
SharedBus::Config unclamped() {
  SharedBus::Config cfg;
  cfg.bandwidth_gbps = 1e6;
  return cfg;
}

/// Drives `bus` and `ref` with the same random traffic: rounds of 1 to 4
/// writes to random cores between reads, with irrational-looking
/// bandwidths so the order of the adds shows in the low bits.
template <typename Check>
void drive(SharedBus& bus, ReferenceBus& ref, int n, int rounds,
           std::uint64_t seed, Check check) {
  Rng rng(seed);
  for (int r = 0; r < rounds; ++r) {
    const int writes = static_cast<int>(rng.randi(1, 5));
    for (int w = 0; w < writes; ++w) {
      const auto c = static_cast<CoreId>(rng.randi(0, n));
      const double misses = rng.uniform(0.0, 1e4) / 3.0;
      const auto window = static_cast<TimeNs>(rng.randi(1000, 200000));
      bus.record_traffic(c, misses, window);
      ref.record(c, misses, window);
    }
    check();
  }
}

TEST(SharedBus, UnloadedLatencyIsBase) {
  SharedBus bus(4);
  EXPECT_DOUBLE_EQ(bus.utilization(), 0.0);
  EXPECT_DOUBLE_EQ(bus.inflation(), 1.0);
  EXPECT_DOUBLE_EQ(bus.effective_latency_ns(), bus.config().base_latency_ns);
}

TEST(SharedBus, TrafficRaisesUtilization) {
  SharedBus bus(2);
  // 1e6 misses × 64 B over 1 ms = 64 GB/s demanded >> 12.8 GB/s capacity.
  for (int i = 0; i < 50; ++i) bus.record_traffic(0, 1e6, milliseconds(1));
  EXPECT_GT(bus.utilization(), 0.9);
  EXPECT_GT(bus.inflation(), 2.0);
  EXPECT_LE(bus.inflation(), bus.config().max_inflation);
}

TEST(SharedBus, UtilizationClampedToOne) {
  SharedBus bus(1);
  for (int i = 0; i < 100; ++i) bus.record_traffic(0, 1e8, milliseconds(1));
  EXPECT_DOUBLE_EQ(bus.utilization(), 1.0);
  EXPECT_DOUBLE_EQ(bus.inflation(), bus.config().max_inflation);
}

TEST(SharedBus, TrafficIsPerCoreAndAdditive) {
  SharedBus bus(2);
  bus.record_traffic(0, 2e4, milliseconds(1));
  const double u1 = bus.utilization();
  bus.record_traffic(1, 2e4, milliseconds(1));
  EXPECT_GT(bus.utilization(), u1);
}

TEST(SharedBus, QuietCoreDecaysViaZeroTraffic) {
  SharedBus bus(1);
  for (int i = 0; i < 30; ++i) bus.record_traffic(0, 5e4, milliseconds(1));
  const double busy = bus.utilization();
  for (int i = 0; i < 30; ++i) bus.record_traffic(0, 0, milliseconds(1));
  EXPECT_LT(bus.utilization(), busy * 0.05);
}

TEST(SharedBus, ResetClears) {
  SharedBus bus(2);
  bus.record_traffic(0, 1e6, milliseconds(1));
  bus.reset();
  EXPECT_DOUBLE_EQ(bus.utilization(), 0.0);
}

TEST(SharedBus, ZeroWindowIgnored) {
  SharedBus bus(1);
  bus.record_traffic(0, 1e6, 0);
  EXPECT_DOUBLE_EQ(bus.utilization(), 0.0);
}

TEST(SharedBus, Validation) {
  EXPECT_THROW(SharedBus(0), std::invalid_argument);
  SharedBus::Config bad;
  bad.bandwidth_gbps = 0;
  EXPECT_THROW(SharedBus(2, bad), std::invalid_argument);
  SharedBus bus(2);
  EXPECT_THROW(bus.record_traffic(5, 1, 1), std::out_of_range);
}

TEST(SharedBus, InflationMonotoneInUtilization) {
  SharedBus bus(1);
  double prev = bus.inflation();
  for (int i = 0; i < 20; ++i) {
    bus.record_traffic(0, 3e4, milliseconds(1));
    EXPECT_GE(bus.inflation() + 1e-12, prev);
    prev = bus.inflation();
  }
}

TEST(SharedBus, UpToOneBlockEqualsTheInOrderSumBitForBit) {
  // Quad, octa, scaled_heterogeneous(2) and every fleet node have at most
  // one block of cores: their bus reads must not move by a single ulp.
  for (const int n : {1, 4, 8, 32}) {
    SharedBus bus(n, unclamped());
    ReferenceBus ref(n, unclamped());
    drive(bus, ref, n, 400, 11 + static_cast<std::uint64_t>(n), [&] {
      ASSERT_EQ(bus.utilization(), ref.flat()) << "n=" << n;
    });
    EXPECT_GT(bus.utilization(), 0.0);
  }
}

TEST(SharedBus, AboveOneBlockEqualsTheBlockedSum) {
  // 33 and 100 end on a partial block; 1024 is 32 full ones.
  for (const int n : {33, 100, 1024}) {
    SharedBus bus(n, unclamped());
    ReferenceBus ref(n, unclamped());
    drive(bus, ref, n, 3000, 7 + static_cast<std::uint64_t>(n), [&] {
      ASSERT_EQ(bus.utilization(), ref.blocked()) << "n=" << n;
    });
    // Regrouping the adds moves the total by rounding error only.
    EXPECT_NEAR(bus.utilization(), ref.flat(), 1e-12 * ref.flat());
  }
}

TEST(SharedBus, ReadWithoutWritesRepeatsTheSameValue) {
  SharedBus bus(100, unclamped());
  EXPECT_EQ(bus.utilization(), 0.0);
  bus.record_traffic(99, 1e4, 3000);
  bus.record_traffic(0, 7e3, 7000);
  const double u = bus.utilization();
  EXPECT_GT(u, 0.0);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(bus.utilization(), u);
  EXPECT_EQ(bus.effective_latency_ns(), bus.effective_latency_ns());
}

TEST(SharedBus, ZeroWindowLeavesTheCachedSumAsIs) {
  for (const int n : {4, 100}) {
    SharedBus bus(n, unclamped());
    ReferenceBus ref(n, unclamped());
    bus.record_traffic(n - 1, 5e3, 9000);
    ref.record(n - 1, 5e3, 9000);
    const double u = bus.utilization();
    bus.record_traffic(0, 1e6, 0);
    bus.record_traffic(n - 1, 1e6, -5);
    EXPECT_EQ(bus.utilization(), u);
    EXPECT_EQ(bus.utilization(), ref.blocked());
  }
}

TEST(SharedBus, ResetMidRunStartsTheSumAfresh) {
  for (const int n : {8, 1024}) {
    SharedBus bus(n, unclamped());
    ReferenceBus ref(n, unclamped());
    drive(bus, ref, n, 200, 3, [] {});
    // Writes after the last read must not survive the reset either.
    bus.record_traffic(n - 1, 9e3, 5000);
    bus.reset();
    EXPECT_EQ(bus.utilization(), 0.0);
    ReferenceBus fresh(n, unclamped());
    drive(bus, fresh, n, 200, 5, [&] {
      ASSERT_EQ(bus.utilization(), fresh.blocked()) << "n=" << n;
    });
  }
}

TEST(SharedBus, BadCoreThrowsBeforeTouchingState) {
  for (const int n : {4, 100}) {
    SharedBus bus(n, unclamped());
    ReferenceBus ref(n, unclamped());
    bus.record_traffic(1, 4e3, 6000);
    ref.record(1, 4e3, 6000);
    // A pending write keeps block 0 stale across the throws below.
    bus.record_traffic(2, 2e3, 6000);
    ref.record(2, 2e3, 6000);
    EXPECT_THROW(bus.record_traffic(-1, 1e6, 1000), std::out_of_range);
    EXPECT_THROW(bus.record_traffic(n, 1e6, 1000), std::out_of_range);
    EXPECT_THROW(bus.record_traffic(n + 40, 1e6, 1000), std::out_of_range);
    EXPECT_EQ(bus.utilization(), ref.blocked());
  }
  EXPECT_THROW(SharedBus(kMaxCores + 1), std::invalid_argument);
  EXPECT_NO_THROW(SharedBus{kMaxCores});
}

}  // namespace
}  // namespace sb::arch
