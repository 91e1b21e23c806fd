#include "checks.h"

#include <cmath>
#include <cstring>

#include "common/percentile.h"

namespace perfbench {

Tail tail_with_ten_beyond(const std::vector<std::uint64_t>& sample) {
  Tail t;
  t.count = sample.size();
  if (sample.empty()) return t;
  const auto n = static_cast<double>(sample.size());
  // Rank exactly as sb::nearest_rank computes it, so `beyond` describes the
  // value that call returns.
  auto rank_of = [&](double q) {
    auto rank = static_cast<std::size_t>(std::ceil(q * n));
    if (rank < 1) rank = 1;
    if (rank > sample.size()) rank = sample.size();
    return rank;
  };
  t.q = kTailLadder[0];
  for (const double q : kTailLadder) {
    if (sample.size() - rank_of(q) >= 10) t.q = q;
  }
  t.beyond = sample.size() - rank_of(t.q);
  t.value = sb::nearest_rank(sample, t.q);
  return t;
}

namespace {

void check_core_laws(const sb::sim::SimulationResult& r, sb::TimeNs window,
                     const std::string& where,
                     std::vector<std::string>& out) {
  if (r.simulated != window) {
    out.push_back(where + "simulated " + std::to_string(r.simulated) +
                  " ns != window " + std::to_string(window) + " ns");
  }
  std::uint64_t core_insts = 0;
  double core_joules = 0;
  for (const auto& c : r.cores) {
    core_insts += c.instructions;
    core_joules += c.energy_j;
    if (c.busy_ns < 0 || c.sleep_ns < 0 ||
        c.busy_ns + c.sleep_ns > r.simulated) {
      out.push_back(where + "core " + std::to_string(c.id) + " busy " +
                    std::to_string(c.busy_ns) + " + sleep " +
                    std::to_string(c.sleep_ns) + " exceeds simulated time");
    }
  }
  std::uint64_t thread_insts = 0;
  for (const auto& t : r.threads) thread_insts += t.instructions;
  if (core_insts != r.instructions) {
    out.push_back(where + "sum of core instructions " +
                  std::to_string(core_insts) + " != total " +
                  std::to_string(r.instructions));
  }
  if (thread_insts != r.instructions) {
    out.push_back(where + "sum of thread instructions " +
                  std::to_string(thread_insts) + " != total " +
                  std::to_string(r.instructions));
  }
  // Written so that a NaN total fails too.
  if (!(r.energy_j > 0) ||
      !(std::abs(core_joules - r.energy_j) / r.energy_j <= 1e-9)) {
    out.push_back(where + "sum of core energy " + std::to_string(core_joules) +
                  " J != total " + std::to_string(r.energy_j) + " J");
  }
}

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void i64(std::int64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
};

void fold(Fnv& f, const sb::sim::SimulationResult& r) {
  f.i64(r.simulated);
  f.u64(r.instructions);
  f.f64(r.energy_j);
  f.u64(r.migrations);
  f.u64(r.context_switches);
  f.u64(r.balance_passes);
  f.u64(r.wake_to_run.count);
  f.u64(r.wake_to_run.p99_ns);
  f.u64(r.wake_to_run.max_ns);
  for (const auto& c : r.cores) {
    f.u64(c.instructions);
    f.f64(c.energy_j);
    f.i64(c.busy_ns);
    f.i64(c.sleep_ns);
  }
  for (const auto& t : r.threads) {
    f.u64(t.instructions);
    f.u64(t.migrations);
    f.i64(t.completion_time);
  }
}

}  // namespace

std::vector<std::string> check_run(const sb::sim::SimulationResult& r,
                                   sb::TimeNs window) {
  std::vector<std::string> out;
  check_core_laws(r, window, "", out);
  return out;
}

std::vector<std::string> check_fleet(const sb::fleet::FleetResult& r,
                                     sb::TimeNs window) {
  std::vector<std::string> out;
  if (r.simulated != window) {
    out.push_back("fleet simulated " + std::to_string(r.simulated) +
                  " ns != window " + std::to_string(window) + " ns");
  }
  if (r.node_results.size() != static_cast<std::size_t>(r.nodes)) {
    out.push_back("fleet has " + std::to_string(r.node_results.size()) +
                  " node results for " + std::to_string(r.nodes) + " nodes");
  }
  std::uint64_t insts = 0;
  double joules = 0;
  for (std::size_t i = 0; i < r.node_results.size(); ++i) {
    const auto& n = r.node_results[i];
    check_core_laws(n, window, "node " + std::to_string(i) + ": ", out);
    insts += n.instructions;
    joules += n.energy_j;
  }
  if (insts != r.instructions) {
    out.push_back("sum of node instructions " + std::to_string(insts) +
                  " != fleet total " + std::to_string(r.instructions));
  }
  if (!(r.energy_j > 0) ||
      !(std::abs(joules - r.energy_j) / r.energy_j <= 1e-9)) {
    out.push_back("sum of node energy " + std::to_string(joules) +
                  " J != fleet total " + std::to_string(r.energy_j) + " J");
  }
  std::uint64_t queued = 0;
  for (const auto& j : r.jobs) queued += j.node < 0 ? 1 : 0;
  if (r.jobs.size() != r.jobs_arrived ||
      r.jobs_arrived != r.jobs_dispatched + queued) {
    out.push_back("jobs arrived " + std::to_string(r.jobs_arrived) +
                  " != dispatched " + std::to_string(r.jobs_dispatched) +
                  " + queued " + std::to_string(queued));
  }
  if (r.jobs_completed > r.jobs_dispatched) {
    out.push_back("jobs completed " + std::to_string(r.jobs_completed) +
                  " > dispatched " + std::to_string(r.jobs_dispatched));
  }
  return out;
}

std::uint64_t digest(const sb::sim::SimulationResult& r) {
  Fnv f;
  fold(f, r);
  return f.h;
}

std::uint64_t digest(const sb::fleet::FleetResult& r) {
  Fnv f;
  f.u64(r.jobs_arrived);
  f.u64(r.jobs_dispatched);
  f.u64(r.jobs_completed);
  f.u64(r.jobs_deferred);
  f.u64(r.instructions);
  f.f64(r.energy_j);
  f.u64(r.p99_dispatch_to_run_ns);
  for (const auto& j : r.jobs) {
    f.i64(j.node);
    f.i64(j.admitted);
    f.i64(j.first_run);
    f.i64(j.completed);
  }
  for (const auto& n : r.node_results) fold(f, n);
  return f.h;
}

}  // namespace perfbench
