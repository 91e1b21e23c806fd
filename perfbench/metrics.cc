#include "metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "common/percentile.h"
#include "hostspeed.h"

namespace perfbench {
namespace {

constexpr double kEpochUs = 60'000.0;  // SmartBalance's 60 ms epoch

double ratio(double num, double den) { return den != 0 ? num / den : 0; }

/// Host timings are read from the calmest stretch of a run. Each operation
/// is one window; a host time is taken per window and the run reports this
/// nearest-rank percentile over the windows (the fastest window when there
/// are fewer than ten). The shared host's speed swings by tens of percent
/// within seconds and drifts over minutes with neighbour load, which only
/// ever slows the program: a whole-run median moved with the neighbours by
/// up to 28 % between runs of the same code.
constexpr double kCalmQuantile = 0.10;

/// Nearest-rank percentile of a sample of doubles (the rule of
/// common/percentile.h, which takes integer samples).
double nearest_rank(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// The calm-window value of per-operation host times.
double calm(std::vector<double> v) {
  return nearest_rank(std::move(v), kCalmQuantile);
}

/// The calm-window value over operations of f(op), a host time.
template <typename F>
double calm_of(const std::vector<OpRecord>& ops, F f) {
  std::vector<double> v;
  v.reserve(ops.size());
  for (const auto& op : ops) v.push_back(f(op));
  return calm(std::move(v));
}

double find_or_zero(const std::map<std::string, double>& m, const char* key) {
  const auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

}  // namespace

double host_slowness(const std::vector<OpRecord>& ops) {
  return calm_of(ops, [](const OpRecord& op) { return op.probe_s; }) /
         HostProbe::kNominalS;
}

double sim_speed(const std::vector<OpRecord>& ops) {
  // Every operation simulates the same window.
  return ratio(ops.front().simulated_s * host_slowness(ops),
               calm_of(ops, [](const OpRecord& op) { return op.run_s; }));
}

std::vector<Metric> end_to_end(const std::vector<OpRecord>& ops,
                               double peak_rss_mb, Tail& tail) {
  // The tail rule runs on one operation's passes, so the percentile is a
  // property of the workload's shape, not of how many operations the host
  // fitted into the run. Both pass-time percentiles are read per operation
  // and reported from the calm window.
  tail = tail_with_ten_beyond(ops.front().pass_ns);
  const double nominal = ratio(1, host_slowness(ops));
  auto pass_pct = [&](double q) {
    return calm_of(ops, [&](const OpRecord& op) {
      return static_cast<double>(sb::nearest_rank(op.pass_ns, q)) / 1e3;
    }) * nominal / kEpochUs * 100;
  };
  // Simulated results repeat exactly across operations (the digest check
  // enforces it), so the first operation speaks for all.
  const OpRecord& first = ops.front();
  return {
      {"sim_speed", sim_speed(ops), "sim_s/host_s"},
      {"balancer_pct_epoch_p50", pass_pct(0.5), "%"},
      {"balancer_pct_epoch_tail", pass_pct(tail.q), "%"},
      {"setup_s",
       calm_of(ops, [](const OpRecord& op) { return op.setup_s; }) * nominal,
       "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"mips_per_watt", first.instructions / first.energy_j / 1e6, "Minst/J"},
      {"gips", first.instructions / first.simulated_s / 1e9, "Ginst/s"},
  };
}

std::vector<Metric> per_layer(const std::vector<OpRecord>& ops,
                              const std::vector<RootTotals>& spans,
                              double trace_speed_ratio) {
  const double nominal = ratio(1, host_slowness(ops));
  auto span_ms = [&](const char* name) {
    std::vector<double> v;
    for (const auto& t : spans) v.push_back(find_or_zero(t.total_s, name) * 1e3);
    return calm(std::move(v)) * nominal;
  };
  std::vector<double> os_self, ns_per_dispatch, residual_us, fleet_run;
  for (std::size_t i = 0; i < ops.size() && i < spans.size(); ++i) {
    const OpRecord& op = ops[i];
    // The kernel's own time: the run call minus the balancer calls inside it.
    const double self_s = find_or_zero(spans[i].self_s, "sim.run");
    os_self.push_back(self_s);
    ns_per_dispatch.push_back(
        ratio(self_s * 1e9, static_cast<double>(op.dispatches)));
    // on_balance time the policy's phase timers do not cover: migrations
    // and bookkeeping.
    residual_us.push_back(ratio((find_or_zero(spans[i].total_s, "core.on_balance") -
                                 op.sense_s - op.predict_s - op.optimize_s) *
                                    1e6,
                                static_cast<double>(op.passes)));
    fleet_run.push_back(find_or_zero(spans[i].total_s, "fleet.run"));
  }
  const double fleet_run_s = calm(fleet_run) * nominal;
  auto per_pass_us = [&](double OpRecord::*phase) {
    return calm_of(ops, [&](const OpRecord& op) {
      return ratio(op.*phase * 1e6, static_cast<double>(op.passes));
    }) * nominal;
  };
  const double exchange_us = per_pass_us(&OpRecord::exchange_s);
  // A ratio of two host times, so its median over operations.
  std::vector<double> shard_eff;
  for (const auto& op : ops) {
    shard_eff.push_back(ratio(
        op.shard_cpu_s, (op.optimize_s - op.exchange_s) * op.shard_workers));
  }
  // Counts repeat exactly across operations.
  const OpRecord& first = ops.front();
  const double passes = static_cast<double>(first.passes);
  return {
      {"sim.construct_ms", span_ms("sim.construct"), "ms"},
      {"core.policy_build_ms", span_ms("core.policy_build"), "ms"},
      {"workload.spawn_ms", span_ms("workload.spawn"), "ms"},
      {"fleet.build_ms", span_ms("fleet.build"), "ms"},
      {"os.self_s", calm(os_self) * nominal, "s"},
      {"os.ns_per_dispatch", calm(ns_per_dispatch) * nominal, "ns"},
      {"os.dispatches", static_cast<double>(first.dispatches), "count"},
      {"os.wakes", static_cast<double>(first.wakes), "count"},
      {"os.migrations", static_cast<double>(first.migrations), "count"},
      {"os.wake_p99_us", first.wake_p99_us, "us"},
      {"core.passes", passes, "count"},
      {"core.sense_us", per_pass_us(&OpRecord::sense_s), "us"},
      {"core.predict_us", per_pass_us(&OpRecord::predict_s), "us"},
      {"core.optimize_us", per_pass_us(&OpRecord::optimize_s) - exchange_us, "us"},
      {"core.exchange_us", exchange_us, "us"},
      {"core.residual_us", calm(residual_us) * nominal, "us"},
      {"core.migrations_per_pass",
       ratio(static_cast<double>(first.pass_migrations), passes), "1/pass"},
      {"core.useful_pass_frac",
       ratio(static_cast<double>(first.useful_passes), passes), "frac"},
      {"core.shard_parallel_eff",
       nearest_rank(shard_eff, 0.5), "frac"},
      {"fleet.run_s", fleet_run_s, "s"},
      {"fleet.jobs_arrived", static_cast<double>(first.jobs_arrived), "count"},
      {"fleet.jobs_completed", static_cast<double>(first.jobs_completed), "count"},
      {"fleet.deferrals", static_cast<double>(first.deferrals), "count"},
      {"fleet.job_p99_ms", first.job_p99_ms, "ms"},
      {"fleet.dispatch_accept_frac",
       ratio(static_cast<double>(first.jobs_dispatched),
             static_cast<double>(first.jobs_dispatched + first.deferrals)),
       "frac"},
      {"fleet.host_us_per_job",
       ratio(fleet_run_s * 1e6, static_cast<double>(first.jobs_arrived)), "us"},
      {"fleet.host_ns_per_dispatch",
       ratio(fleet_run_s * 1e9, static_cast<double>(first.dispatches)), "ns"},
      {"fleet.node_balancer_us",
       calm_of(ops, [](const OpRecord& op) { return op.node_balancer_us; }) *
           nominal,
       "us"},
      {"trace.speed_ratio", trace_speed_ratio, "ratio"},
  };
}

}  // namespace perfbench
