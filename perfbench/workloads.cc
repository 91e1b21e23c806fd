#include "workloads.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "arch/platform.h"
#include "arch/platform_loader.h"
#include "checks.h"
#include "core/smart_balance.h"
#include "fleet/fleet.h"
#include "os/kernel.h"
#include "os/load_balancer.h"
#include "sim/experiment.h"
#include "sim/simulation.h"

namespace perfbench {
namespace {

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Forwarding balancer: times every on_balance call from outside, counts the
/// kernel migrations it caused, and keeps the inner policy so its public
/// per-phase stats can be read after the run.
class TimedBalancer final : public sb::os::LoadBalancer {
 public:
  TimedBalancer(std::unique_ptr<sb::os::LoadBalancer> inner, OpRecord& op)
      : inner_(std::move(inner)), op_(op) {}

  sb::TimeNs interval() const override { return inner_->interval(); }
  std::string name() const override { return inner_->name(); }
  sb::os::BalancePassStats last_pass_stats() const override {
    return inner_->last_pass_stats();
  }
  std::uint64_t passes() const override { return inner_->passes(); }

  void on_balance(sb::os::Kernel& kernel, sb::TimeNs now) override {
    const std::uint64_t before = kernel.total_migrations();
    const auto t0 = Clock::now();
    inner_->on_balance(kernel, now);
    const auto t1 = Clock::now();
    const std::uint64_t moved = kernel.total_migrations() - before;
    op_.pass_ns.push_back(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()));
    ++op_.passes;
    op_.pass_migrations += moved;
    op_.useful_passes += moved > 0 ? 1 : 0;
    if (spans_ != nullptr) spans_->add("core.on_balance", t0, t1, parent_);
  }

  /// Traced runs: on_balance spans become children of `parent`.
  void trace_into(SpanRecorder* spans, int parent) {
    spans_ = spans;
    parent_ = parent;
  }

  const sb::core::SmartBalancePolicy* policy() const {
    return dynamic_cast<const sb::core::SmartBalancePolicy*>(inner_.get());
  }

 private:
  std::unique_ptr<sb::os::LoadBalancer> inner_;
  OpRecord& op_;
  SpanRecorder* spans_ = nullptr;
  int parent_ = -1;
};

/// Opens a span only on traced runs.
int open_span(const OpContext& ctx, const char* name, int parent) {
  return ctx.spans != nullptr ? ctx.spans->open(name, parent) : -1;
}
void close_span(const OpContext& ctx, int span) {
  if (ctx.spans != nullptr) ctx.spans->close(span);
}
void add_span(const OpContext& ctx, const char* name, Clock::time_point a,
              Clock::time_point b, int parent) {
  if (ctx.spans != nullptr) ctx.spans->add(name, a, b, parent);
}

/// Single-node workloads: quad-mix and gen1024-sharded.
OpRecord run_node(const Workload& w, const OpContext& ctx) {
  OpRecord op;
  const int root = open_span(ctx, w.name, -1);
  const int setup = open_span(ctx, "setup", root);

  const auto t0 = Clock::now();
  const sb::arch::Platform platform =
      w.shape == Shape::kQuadMix ? sb::arch::Platform::quad_heterogeneous()
                                 : sb::arch::generate_platform("32x96:8");
  sb::sim::SimulationConfig cfg;
  cfg.duration = w.window;
  cfg.seed = ctx.seed;
  sb::sim::Simulation sim(platform, cfg);
  const auto t1 = Clock::now();

  sb::core::SmartBalanceConfig sb_cfg;
  if (w.shape == Shape::kGen1024Sharded) {
    sb_cfg.sharding.shards = 32;
    sb_cfg.sharding.jobs = ctx.workers;
  }
  auto timed = std::make_unique<TimedBalancer>(
      sb::sim::smartbalance_factory(sb_cfg)(sim), op);
  TimedBalancer& balancer = *timed;
  sim.set_balancer(std::move(timed));
  const auto t2 = Clock::now();

  if (w.shape == Shape::kQuadMix) {
    // Table 3 mix 6 with two threads per member, plus interactive IMB
    // threads whose sleep/wake cycles exercise the kernel's wake path.
    sim.add_mix(6, 2);
    sim.add_benchmark("IMB_MTHI", 2);
    sim.add_benchmark("IMB_LTHI", 2);
  } else {
    // The fig7 / fig_shard_scaling mix: two threads per core, round-robin.
    const char* names[] = {"swaptions", "canneal", "bodytrack", "x264_H_crew"};
    for (int i = 0; i < 2 * platform.num_cores(); ++i) {
      sim.add_benchmark(names[i % 4], 1);
    }
  }
  const auto t3 = Clock::now();
  add_span(ctx, "sim.construct", t0, t1, setup);
  add_span(ctx, "core.policy_build", t1, t2, setup);
  add_span(ctx, "workload.spawn", t2, t3, setup);
  close_span(ctx, setup);

  const int run = open_span(ctx, "sim.run", root);
  balancer.trace_into(ctx.spans, run);
  const auto t4 = Clock::now();
  const sb::sim::SimulationResult r = sim.run();
  const auto t5 = Clock::now();
  close_span(ctx, run);
  close_span(ctx, root);

  op.setup_s = seconds_between(t0, t3);
  op.run_s = seconds_between(t4, t5);

  op.failures = check_run(r, w.window);
  op.digest = digest(r);
  op.simulated_s = sb::to_seconds(r.simulated);
  op.instructions = static_cast<double>(r.instructions);
  op.energy_j = r.energy_j;
  op.wake_p99_us = static_cast<double>(r.wake_to_run.p99_ns) / 1e3;
  op.dispatches = r.context_switches;
  op.wakes = r.wake_to_run.count;
  op.migrations = r.migrations;

  const sb::core::SmartBalancePolicy* policy = balancer.policy();
  if (policy == nullptr) {
    op.failures.push_back("installed balancer is not SmartBalancePolicy");
    return op;
  }
  if (policy->passes() != op.passes) {
    op.failures.push_back("policy counted " + std::to_string(policy->passes()) +
                          " passes, the forwarding balancer " +
                          std::to_string(op.passes));
  }
  op.sense_s = policy->sense_ns().sum() * 1e-9;
  op.predict_s = policy->predict_ns().sum() * 1e-9;
  op.optimize_s = policy->optimize_ns().sum() * 1e-9;
  if (const auto* sharded = policy->sharded()) {
    op.exchange_s = static_cast<double>(sharded->exchange_ns_total()) * 1e-9;
    op.shard_cpu_s = static_cast<double>(sharded->shard_cpu_ns_total()) * 1e-9;
    op.shard_workers =
        std::min(sharded->partition().num_shards(), sharded->config().jobs);
  }
  return op;
}

OpRecord run_fleet(const Workload& w, const OpContext& ctx) {
  OpRecord op;
  const int root = open_span(ctx, w.name, -1);
  const int setup = open_span(ctx, "setup", root);

  sb::fleet::FleetConfig cfg;
  cfg.nodes = 64;
  cfg.policy = sb::fleet::DispatchPolicy::kEnergyAware;
  cfg.rate_hz = 4000.0;
  // A steady Poisson clock: the default two-state burst modulation makes
  // the offered load, and with it every metric, vary by seed far beyond the
  // benchmark's bounds over any window a run can afford.
  cfg.burst_factor = 1.0;
  cfg.duration = w.window;
  cfg.seed = ctx.seed;
  cfg.step_jobs = ctx.workers;
  const auto t0 = Clock::now();
  sb::fleet::FleetSimulation fleet(cfg,
                                   {sb::arch::Platform::quad_heterogeneous()});
  const auto t1 = Clock::now();
  add_span(ctx, "fleet.build", t0, t1, setup);
  close_span(ctx, setup);

  const int run = open_span(ctx, "fleet.run", root);
  const auto t2 = Clock::now();
  const sb::fleet::FleetResult r = fleet.run();
  const auto t3 = Clock::now();
  close_span(ctx, run);
  close_span(ctx, root);

  op.setup_s = seconds_between(t0, t1);
  op.run_s = seconds_between(t2, t3);

  op.failures = check_fleet(r, w.window);
  op.digest = digest(r);
  op.simulated_s = sb::to_seconds(r.simulated);
  op.instructions = static_cast<double>(r.instructions);
  op.energy_j = r.energy_j;
  op.job_p99_ms = static_cast<double>(r.p99_dispatch_to_run_ns) / 1e6;
  op.jobs_arrived = r.jobs_arrived;
  op.jobs_dispatched = r.jobs_dispatched;
  op.jobs_completed = r.jobs_completed;
  op.deferrals = r.jobs_deferred;

  double phase_us_total = 0;
  for (const auto& n : r.node_results) {
    const double pass_us = n.avg_sense_us + n.avg_predict_us + n.avg_optimize_us;
    op.pass_ns.push_back(static_cast<std::uint64_t>(pass_us * 1e3));
    phase_us_total += pass_us * static_cast<double>(n.balance_passes);
    op.passes += n.balance_passes;
    op.dispatches += n.context_switches;
    op.wakes += n.wake_to_run.count;
    op.migrations += n.migrations;
  }
  op.node_balancer_us =
      op.passes > 0 ? phase_us_total / static_cast<double>(op.passes) : 0;
  return op;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"quad-mix", Shape::kQuadMix, sb::seconds(30)},
      {"gen1024-sharded", Shape::kGen1024Sharded, sb::seconds(6)},
      {"fleet64", Shape::kFleet64, sb::seconds(10)},
  };
  return all;
}

const Workload* find_workload(std::string_view name) {
  for (const auto& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

OpRecord run_operation(const Workload& w, const OpContext& ctx) {
  return w.shape == Shape::kFleet64 ? run_fleet(w, ctx) : run_node(w, ctx);
}

}  // namespace perfbench
