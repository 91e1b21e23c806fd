// Example: study a Table 3 benchmark mix on the 4-type HMP under three
// policies (no balancing, vanilla CFS balancing, SmartBalance) and print
// the per-core energy/throughput breakdown for each.
//
//   ./build/examples/parsec_mix_study [mix-id 1..6] [threads-per-member]
#include <iostream>

#include "arch/platform.h"
#include "common/spec.h"
#include "sim/experiment.h"
#include "sim/runner.h"
#include "sim/simulation.h"
#include "workload/mixes.h"

int main(int argc, char** argv) {
  using namespace sb;
  const auto arg = [&](int i, const char* what, int fallback, int hi) {
    return argc > i ? static_cast<int>(spec::flag_int("parsec_mix_study",
                                                      what, argv[i], 1, hi))
                    : fallback;
  };
  const int mix_id = arg(1, "mix", 6, workload::num_mixes());
  const int threads = arg(2, "threads", 2, 1024);

  std::cout << "Mix" << mix_id << " members:";
  for (const auto& m : workload::mix_members(mix_id)) std::cout << ' ' << m;
  std::cout << ", " << threads << " threads each\n\n";

  const auto platform = arch::Platform::quad_heterogeneous();
  sim::SimulationConfig cfg;
  cfg.duration = milliseconds(600);
  cfg.label = "Mix" + std::to_string(mix_id);

  // All three policies run concurrently through the experiment runner
  // (worker count: SB_JOBS env var, else hardware concurrency); results are
  // deterministic and come back in submission order.
  const auto batch = sim::run_sweep(
      platform, cfg,
      {{"Mix" + std::to_string(mix_id),
        [&](sim::Simulation& s) { s.add_mix(mix_id, threads); }}},
      {{"none", [](const sim::Simulation&) {
          return std::make_unique<os::NullBalancer>();
        }},
       {"vanilla", sim::vanilla_factory()},
       {"smartbalance", sim::smartbalance_factory()}});
  const auto& runs = batch.runs;

  for (const auto& run : runs) {
    if (!run.ok()) {
      std::cerr << "run '" << run.label << "' failed: " << run.error << "\n";
      return 1;
    }
    sim::print_result(std::cout, run.result);
    std::cout << '\n';
  }

  std::cout << "SmartBalance vs vanilla: "
            << 100.0 * (sim::efficiency_ratio(runs[2].result, runs[1].result) -
                        1.0)
            << " % better IPS/W  (batch: " << batch.summary.threads
            << " worker thread(s), " << static_cast<long>(batch.summary.wall_ms)
            << " ms wall)\n";
  return 0;
}
