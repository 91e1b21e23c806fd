#include "hostspeed.h"

#include <chrono>
#include <numeric>
#include <random>
#include <utility>

#include "trace.h"

namespace perfbench {
namespace {

constexpr std::size_t kCycleSlots = std::size_t{1} << 21;  // 8 MiB
constexpr std::size_t kTableSlots = std::size_t{1} << 18;  // 1 MiB
constexpr int kChaseSteps = 30'000;
constexpr int kLoopSteps = 700'000;

}  // namespace

double HostProbe::run_s() {
  if (cycle_.empty()) {
    // Sattolo's algorithm turns the identity into a uniformly random
    // permutation with a single cycle, so the chase visits every slot in an
    // order no prefetcher can predict.
    cycle_.resize(kCycleSlots);
    std::iota(cycle_.begin(), cycle_.end(), 0u);
    std::mt19937_64 rng(0x5b5b5b5bu);
    for (std::size_t i = kCycleSlots - 1; i > 0; --i) {
      std::swap(cycle_[i], cycle_[rng() % i]);
    }
    table_.resize(kTableSlots);
    for (auto& t : table_) t = static_cast<std::uint32_t>(rng());
  }
  const auto t0 = Clock::now();
  std::uint32_t at = static_cast<std::uint32_t>(sink_ % kCycleSlots);
  for (int i = 0; i < kChaseSteps; ++i) at = cycle_[at];
  std::uint32_t x = at | 1u;
  std::uint64_t acc = 0;
  for (int i = 0; i < kLoopSteps; ++i) {
    x = x * 1103515245u + 12345u;
    const std::uint32_t v = table_[(x >> 8) & (kTableSlots - 1)];
    acc += (v & 1u) != 0 ? v >> 3 : acc >> 7;
  }
  sink_ += acc;
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace perfbench
