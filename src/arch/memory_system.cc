#include "arch/memory_system.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace sb::arch {

SharedBus::SharedBus(int num_cores, Config config)
    : config_(config) {
  if (num_cores <= 0) throw std::invalid_argument("SharedBus: no cores");
  if (num_cores > kMaxCores) {
    throw std::invalid_argument("SharedBus: more than kMaxCores cores");
  }
  if (config_.bandwidth_gbps <= 0 || config_.base_latency_ns <= 0) {
    throw std::invalid_argument("SharedBus: bad config");
  }
  core_bw_gbps_.assign(static_cast<std::size_t>(num_cores), 0.0);
  block_sum_.assign(
      static_cast<std::size_t>((num_cores + kBlockCores - 1) / kBlockCores),
      0.0);
}

void SharedBus::record_traffic(CoreId c, double misses, TimeNs window) {
  if (c < 0 || static_cast<std::size_t>(c) >= core_bw_gbps_.size()) {
    throw std::out_of_range("SharedBus: bad core");
  }
  if (window <= 0) return;
  const double bytes = misses * config_.line_bytes;
  const double gbps = bytes / static_cast<double>(window);  // B/ns == GB/s
  // Exponential smoothing keeps the contention estimate stable across the
  // fine-grained scheduling segments that report here.
  constexpr double kAlpha = 0.3;
  auto& slot = core_bw_gbps_[static_cast<std::size_t>(c)];
  slot = (1.0 - kAlpha) * slot + kAlpha * gbps;
  stale_ |= std::uint32_t{1} << (c / kBlockCores);
}

double SharedBus::utilization() const {
  if (stale_ != 0) {
    const std::size_t n = core_bw_gbps_.size();
    for (; stale_ != 0; stale_ &= stale_ - 1) {
      const auto b = static_cast<std::size_t>(std::countr_zero(stale_));
      const std::size_t end = std::min(n, (b + 1) * kBlockCores);
      double sum = 0.0;
      for (std::size_t c = b * kBlockCores; c < end; ++c) {
        sum += core_bw_gbps_[c];
      }
      block_sum_[b] = sum;
    }
    double total = 0.0;
    for (double sum : block_sum_) total += sum;
    total_gbps_ = total;
  }
  return std::clamp(total_gbps_ / config_.bandwidth_gbps, 0.0, 1.0);
}

double SharedBus::inflation() const {
  const double u = utilization();
  const double f = 1.0 + (config_.max_inflation - 1.0) *
                             std::pow(u, config_.contention_exponent);
  return std::min(f, config_.max_inflation);
}

double SharedBus::effective_latency_ns() const {
  return config_.base_latency_ns * inflation();
}

void SharedBus::reset() {
  std::fill(core_bw_gbps_.begin(), core_bw_gbps_.end(), 0.0);
  std::fill(block_sum_.begin(), block_sum_.end(), 0.0);
  total_gbps_ = 0.0;
  stale_ = 0;
}

}  // namespace sb::arch
