// perfbench — the repository benchmark.
//
//   perfbench --workload <quad-mix|gen1024-sharded|fleet64> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <file.json>]
//
// Repeats one workload's operation (a fixed simulated window, same seed)
// until --seconds of host time have passed, checks every operation's
// results, and prints one JSON object as its last stdout line:
//   --trace 0: the end-to-end metrics, measured with tracing off;
//   --trace 1: the per-layer metrics, from a traced run that is preceded by
//              an untraced one of equal length (their simulated digests must
//              match; the ratio of their sim speeds is the tracing overhead).
// Exits 1 when any operation fails a check or throws, 2 on bad arguments.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "checks.h"
#include "hostspeed.h"
#include "metrics.h"
#include "trace.h"
#include "workloads.h"

namespace {

using perfbench::Metric;
using perfbench::OpRecord;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <file>]\nworkloads:";
  for (const auto& w : perfbench::workloads()) std::cerr << ' ' << w.name;
  std::cerr << '\n';
  std::exit(2);
}

/// Whole-string unsigned parse; rejects signs, blanks and trailing junk.
std::uint64_t parse_u64(const std::string& flag, const std::string& v) {
  if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos ||
      v.size() > 19) {
    usage(flag + " wants a non-negative integer, got '" + v + "'");
  }
  return std::stoull(v);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    if (const auto eq = flag.find('='); eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      usage(flag + " needs a value");
    }
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = parse_u64(flag, value);
    } else if (flag == "--seconds") {
      const std::uint64_t s = parse_u64(flag, value);
      if (s < 1 || s > 3600) usage("--seconds must be in [1, 3600]");
      a.seconds = static_cast<double>(s);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace wants 0 or 1");
      a.trace = value == "1" ? 1 : 0;
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (perfbench::find_workload(a.workload) == nullptr) {
    usage("unknown workload '" + a.workload + "'");
  }
  return a;
}

/// CPUs this process may run on (what `nproc` prints).
int available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

struct Batch {
  std::vector<OpRecord> ops;
  double peak_rss_mb = 0;  // high-water mark after the first operation
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
};

/// Median of one HostProbe run per quarter second of the operation's host
/// time (at least one, at most 16), so long operations are matched by as
/// many samples of the host's speed as short ones.
double probe_after(perfbench::HostProbe& probe, const OpRecord& op) {
  const int n = std::min(16, 1 + static_cast<int>(op.run_s / 0.25));
  std::vector<double> t;
  for (int i = 0; i < n; ++i) t.push_back(probe.run_s());
  std::nth_element(t.begin(), t.begin() + n / 2, t.end());
  return t[n / 2];
}

/// Repeats the workload's operation until `seconds` of host time have
/// passed (at least once), timing the host-speed probe after each. Every
/// operation must reproduce the first one's digest: same seed, same
/// simulated statistics.
Batch run_batch(const perfbench::Workload& w, const perfbench::OpContext& ctx,
                perfbench::HostProbe& probe, double seconds) {
  Batch b;
  const auto start = perfbench::Clock::now();
  do {
    ++b.attempted;
    OpRecord op;
    try {
      op = perfbench::run_operation(w, ctx);
    } catch (const std::exception& e) {
      ++b.failed;
      b.failures.push_back(std::string("operation threw: ") + e.what());
      break;
    }
    if (!b.ops.empty() && op.digest != b.ops.front().digest) {
      op.failures.push_back("digest differs from the first repetition");
    }
    // Each job is an operation of its own; one that arrived but was never
    // dispatched failed.
    b.attempted += op.jobs_arrived;
    b.failed += op.jobs_arrived - op.jobs_dispatched;
    if (!op.failures.empty()) {
      ++b.failed;
      for (const auto& f : op.failures) b.failures.push_back(f);
      break;
    }
    if (b.ops.empty()) {
      rusage usage{};
      getrusage(RUSAGE_SELF, &usage);
      b.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
    }
    op.probe_s = probe_after(probe, op);
    b.ops.push_back(std::move(op));
  } while (std::chrono::duration<double>(perfbench::Clock::now() - start)
               .count() < seconds);
  return b;
}

void print_result(bool correct, const Batch& b,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(b.attempted),
              static_cast<unsigned long long>(b.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const perfbench::Workload& w = *perfbench::find_workload(args.workload);
  // Worker counts are pinned below; nothing may inherit them from outside.
  unsetenv("SB_JOBS");
  // One heap arena: with per-thread arenas, which shard worker first touches
  // a shard's scratch decided whether ~16 MB landed in a second arena, and
  // gen1024-sharded's peak RSS read 77 or 93 MB by thread scheduling alone.
  mallopt(M_ARENA_MAX, 1);
  // Fixed mmap and trim thresholds at the values glibc's dynamic threshold
  // settles on once large blocks have been freed. Left dynamic, whether a
  // 16 MB block was mmapped or carved from the heap also depended on the
  // order the shard workers freed their scratch in: gen1024-sharded's peak
  // RSS read 75.6 or 91.3 MB about equally often, against 91 MB on most
  // runs (75 MB on one to four in ten) with the thresholds fixed.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 64 << 20);
  const int nproc = available_cpus();
  perfbench::OpContext ctx;
  ctx.seed = args.seed;
  // Shard annealing runs on min(4, nproc) workers. Fleet node stepping runs
  // on one: with four, the per-quantum join made fleet64's sim speed swing
  // threefold with neighbour load on a 4-vCPU host, and it was slower on
  // average than stepping the nodes in turn.
  ctx.workers =
      w.shape == perfbench::Shape::kFleet64 ? 1 : std::min(4, nproc);

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d nproc=%d "
              "workers=%d window_s=%g\n",
              w.name, static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace, nproc, ctx.workers, sb::to_seconds(w.window));

  perfbench::HostProbe probe;
  Batch batch;
  std::vector<Metric> metrics;
  bool correct = false;
  if (args.trace == 0) {
    batch = run_batch(w, ctx, probe, args.seconds);
    correct = batch.failed == 0 && !batch.ops.empty();
    if (correct) {
      perfbench::Tail tail;
      metrics = perfbench::end_to_end(batch.ops, batch.peak_rss_mb, tail);
      std::printf("tail percentile=%.4g of %llu balancer passes per operation "
                  "(%llu beyond)\n",
                  tail.q * 100, static_cast<unsigned long long>(tail.count),
                  static_cast<unsigned long long>(tail.beyond));
    }
  } else {
    batch = run_batch(w, ctx, probe, args.seconds / 2);
    perfbench::SpanRecorder spans;
    perfbench::OpContext traced_ctx = ctx;
    traced_ctx.spans = &spans;
    if (batch.failed == 0) {
      Batch traced = run_batch(w, traced_ctx, probe, args.seconds / 2);
      batch.attempted += traced.attempted;
      batch.failed += traced.failed;
      batch.failures.insert(batch.failures.end(), traced.failures.begin(),
                            traced.failures.end());
      if (traced.failed == 0 &&
          traced.ops.front().digest != batch.ops.front().digest) {
        ++batch.failed;
        batch.failures.push_back("traced digest differs from untraced");
      }
      correct = batch.failed == 0;
      if (correct) {
        const double speed_ratio = perfbench::sim_speed(traced.ops) /
                                   perfbench::sim_speed(batch.ops);
        metrics = perfbench::per_layer(
            traced.ops, perfbench::totals_by_root(spans.spans()), speed_ratio);
        std::printf("traced ops=%zu untraced ops=%zu spans=%zu\n",
                    traced.ops.size(), batch.ops.size(), spans.spans().size());
        if (!args.trace_out.empty()) {
          std::ofstream out(args.trace_out);
          spans.write_chrome_json(
              out, {{"workload", w.name},
                    {"seed", std::to_string(args.seed)},
                    {"nproc", std::to_string(nproc)},
                    {"workers", std::to_string(ctx.workers)}});
          if (!out) {
            std::cerr << "perfbench: cannot write " << args.trace_out << '\n';
            return 1;
          }
        }
      }
    }
  }
  for (const auto& f : batch.failures) std::fprintf(stderr, "FAIL: %s\n", f.c_str());
  if (!batch.ops.empty()) {
    std::printf("ops=%zu digest=%016llx host_slowness=%.4f\n",
                batch.ops.size(),
                static_cast<unsigned long long>(batch.ops.front().digest),
                perfbench::host_slowness(batch.ops));
  }
  print_result(correct, batch, metrics);
  return correct ? 0 : 1;
}
