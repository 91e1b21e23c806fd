#include "workload/sched_replay.h"

#include <cmath>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <map>
#include <stdexcept>

#include "common/spec.h"
#include "workload/benchmarks.h"
#include "workload/trace_loader.h"

namespace sb::workload {
namespace {

// 1e9 us = 1000 s of trace: far beyond any simulated window, and small
// enough that the fixed-point microsecond round-trip through double stays
// exact to the nanosecond (|t_us * 1000| < 2^51).
constexpr double kMaxTimestampUs = 1e9;

[[noreturn]] void fail(std::size_t line, const std::string& why) {
  throw std::runtime_error("sched replay line " + std::to_string(line) + ": " +
                           why);
}

ReplayEvent::Kind kind_of(const std::string& s, std::size_t lineno) {
  if (s == "spawn") return ReplayEvent::Kind::Spawn;
  if (s == "wake") return ReplayEvent::Kind::Wake;
  if (s == "sleep") return ReplayEvent::Kind::Sleep;
  if (s == "exit") return ReplayEvent::Kind::Exit;
  fail(lineno, "unknown event '" + s + "'");
}

const char* kind_name(ReplayEvent::Kind k) {
  switch (k) {
    case ReplayEvent::Kind::Spawn: return "spawn";
    case ReplayEvent::Kind::Wake: return "wake";
    case ReplayEvent::Kind::Sleep: return "sleep";
    case ReplayEvent::Kind::Exit: return "exit";
  }
  return "?";
}

TimeNs timestamp_of(const std::string& cell, std::size_t lineno) {
  const auto t_us = spec::parse_double(cell, 0.0, kMaxTimestampUs);
  if (!t_us) {
    fail(lineno, "timestamp not a number in [0, 1e9] us: '" + cell + "'");
  }
  return static_cast<TimeNs>(std::llround(*t_us * 1000.0));
}

}  // namespace

const std::string& replay_csv_header() {
  static const std::string kHeader = "event,t_us,task,ref";
  return kHeader;
}

TimeNs ReplayTrace::span() const {
  return events.empty() ? 0 : events.back().at;
}

std::size_t ReplayTrace::num_tasks() const {
  std::size_t n = 0;
  for (const auto& e : events) {
    if (e.kind == ReplayEvent::Kind::Spawn) ++n;
  }
  return n;
}

ReplayTrace parse_replay_trace(std::istream& is, const std::string& context) {
  std::string line;
  if (!std::getline(is, line)) {
    throw std::runtime_error(context + ": empty input");
  }
  if (line != replay_csv_header()) fail(1, "unexpected header");

  struct TaskState {
    bool asleep = false;
    bool exited = false;
    TimeNs last = 0;
  };
  std::map<std::string, TaskState> tasks;

  ReplayTrace trace;
  TimeNs prev_at = 0;
  std::size_t lineno = 1;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty()) continue;
    const std::vector<std::string> cells = spec::split(line, ',');
    if (cells.size() != 4) {
      fail(lineno,
           "expected 4 columns, got " + std::to_string(cells.size()));
    }
    ReplayEvent ev;
    ev.kind = kind_of(cells[0], lineno);
    ev.at = timestamp_of(cells[1], lineno);
    ev.task = cells[2];
    ev.ref = cells[3];
    if (ev.task.empty()) fail(lineno, "empty task name");
    if (ev.at < prev_at) {
      fail(lineno, "timestamps must be non-decreasing across the file");
    }
    prev_at = ev.at;

    const auto it = tasks.find(ev.task);
    if (ev.kind == ReplayEvent::Kind::Spawn) {
      if (it != tasks.end()) fail(lineno, "duplicate spawn of '" + ev.task + "'");
      if (ev.ref.empty()) fail(lineno, "spawn needs a phase-trace ref");
      tasks[ev.task] = TaskState{false, false, ev.at};
    } else {
      if (!ev.ref.empty()) {
        fail(lineno, std::string(kind_name(ev.kind)) + " must not carry a ref");
      }
      if (it == tasks.end()) {
        fail(lineno, "'" + ev.task + "' " + kind_name(ev.kind) +
                         " before spawn");
      }
      TaskState& ts = it->second;
      if (ts.exited) fail(lineno, "'" + ev.task + "' already exited");
      if (ev.at <= ts.last) {
        fail(lineno, "per-task timestamps must be strictly increasing");
      }
      switch (ev.kind) {
        case ReplayEvent::Kind::Wake:
          if (!ts.asleep) fail(lineno, "'" + ev.task + "' wake while awake");
          ts.asleep = false;
          break;
        case ReplayEvent::Kind::Sleep:
          if (ts.asleep) fail(lineno, "'" + ev.task + "' sleep while asleep");
          ts.asleep = true;
          break;
        case ReplayEvent::Kind::Exit:
          ts.exited = true;
          break;
        case ReplayEvent::Kind::Spawn:
          break;  // unreachable
      }
      ts.last = ev.at;
    }
    trace.events.push_back(std::move(ev));
  }
  if (tasks.empty()) fail(lineno, "trace contains no spawn");
  return trace;
}

ReplayTrace load_replay_trace_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot read sched replay trace: " + path);
  return parse_replay_trace(is, path);
}

void save_replay_trace(std::ostream& os, const ReplayTrace& trace) {
  os << replay_csv_header() << "\n";
  for (const auto& e : trace.events) {
    os << kind_name(e.kind) << ',' << e.at / 1000 << '.' << std::setw(3)
       << std::setfill('0') << e.at % 1000 << std::setfill(' ') << ','
       << e.task << ',' << e.ref << "\n";
  }
}

void save_replay_trace_file(const std::string& path,
                            const ReplayTrace& trace) {
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("cannot write sched replay trace: " + path);
  }
  save_replay_trace(os, trace);
}

ReplaySchedule compile_replay_schedule(const ReplayTrace& trace,
                                       const ReplayCompileOptions& opts) {
  if (!std::isfinite(opts.ips_hint) || opts.ips_hint <= 0 ||
      opts.ips_hint > 1e3) {
    throw std::runtime_error(
        "sched replay: ips_hint out of (0, 1e3] instructions/ns");
  }

  // Per-task duty-cycle accumulation over the event stream.
  struct Acc {
    TimeNs spawn_at = 0;
    bool asleep = false;
    bool exited = false;
    TimeNs awake_since = 0;   // valid while !asleep && !exited
    TimeNs asleep_since = 0;  // valid while asleep
    TimeNs busy_ns = 0;
    std::uint64_t busy_intervals = 0;
    TimeNs sleep_ns = 0;
    std::uint64_t wakes = 0;
    std::string ref;
  };
  std::map<std::string, Acc> accs;
  std::vector<std::string> order;  // spawn order

  for (const auto& e : trace.events) {
    switch (e.kind) {
      case ReplayEvent::Kind::Spawn: {
        Acc a;
        a.spawn_at = e.at;
        a.awake_since = e.at;
        a.ref = e.ref;
        accs[e.task] = std::move(a);
        order.push_back(e.task);
        break;
      }
      case ReplayEvent::Kind::Sleep: {
        Acc& a = accs[e.task];
        a.busy_ns += e.at - a.awake_since;
        ++a.busy_intervals;
        a.asleep = true;
        a.asleep_since = e.at;
        break;
      }
      case ReplayEvent::Kind::Wake: {
        Acc& a = accs[e.task];
        a.sleep_ns += e.at - a.asleep_since;
        ++a.wakes;
        a.asleep = false;
        a.awake_since = e.at;
        break;
      }
      case ReplayEvent::Kind::Exit: {
        Acc& a = accs[e.task];
        if (!a.asleep) {
          a.busy_ns += e.at - a.awake_since;
          ++a.busy_intervals;
        }
        a.exited = true;
        break;
      }
    }
  }
  // Tasks still awake when the trace ends contribute their truncated final
  // busy interval (better burst estimate for rarely sleeping tasks).
  const TimeNs end = trace.span();
  for (auto& [name, a] : accs) {
    if (!a.exited && !a.asleep && end > a.awake_since) {
      a.busy_ns += end - a.awake_since;
      ++a.busy_intervals;
    }
  }

  ReplaySchedule sched;
  sched.span = end;
  for (const std::string& name : order) {
    const Acc& a = accs[name];
    ReplayTask rt;
    rt.name = name;
    rt.spawn_at = a.spawn_at;
    rt.wakes = a.wakes;
    rt.busy_ns = a.busy_ns;
    rt.sleep_ns = a.sleep_ns;
    rt.exits = a.exited;

    ThreadBehavior& tb = rt.behavior;
    tb.name = name;
    tb.sleep_jitter = 0;  // the schedule is a pure function of the trace

    // Phase characterization from the spawn ref.
    constexpr std::string_view kBuiltin = "builtin:";
    if (a.ref.rfind(kBuiltin, 0) == 0) {
      const std::string bench = a.ref.substr(kBuiltin.size());
      try {
        tb.phases = BenchmarkLibrary::get(bench).phases;
      } catch (const std::out_of_range&) {
        throw std::runtime_error("sched replay: unknown builtin benchmark '" +
                                 bench + "' for task '" + name + "'");
      }
    } else {
      std::string path = a.ref;
      if (!opts.base_dir.empty() && !path.empty() && path.front() != '/') {
        path = opts.base_dir + "/" + path;
      }
      tb.phases = load_thread_trace_file(path, name).phases;
    }

    // Duty cycle: mean busy interval -> burst budget, completed sleep→wake
    // gaps -> deterministic sleep period. Tasks that never completed a
    // sleep/wake cycle replay as CPU-bound.
    if (a.wakes > 0 && a.busy_intervals > 0 && a.busy_ns > 0) {
      const double mean_busy_ns = static_cast<double>(a.busy_ns) /
                                  static_cast<double>(a.busy_intervals);
      const double mean_sleep_ns =
          static_cast<double>(a.sleep_ns) / static_cast<double>(a.wakes);
      tb.burst_instructions = std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(
                 std::llround(mean_busy_ns * opts.ips_hint)));
      tb.sleep_mean_ns =
          std::max<TimeNs>(1, static_cast<TimeNs>(std::llround(mean_sleep_ns)));
    }
    if (a.exited) {
      tb.total_instructions = std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(std::llround(
                 static_cast<double>(a.busy_ns) * opts.ips_hint)));
    }
    try {
      tb.validate();
    } catch (const std::invalid_argument& e) {
      throw std::runtime_error("sched replay: compiled behavior for '" + name +
                               "' invalid: " + e.what());
    }
    sched.tasks.push_back(std::move(rt));
  }
  return sched;
}

int replay_class_of(std::string_view task, int num_classes) {
  if (num_classes < 1) {
    throw std::invalid_argument("replay_class_of: num_classes < 1");
  }
  std::uint64_t h = 14695981039346656037ULL;  // FNV-1a 64
  for (const char c : task) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return static_cast<int>(h % static_cast<std::uint64_t>(num_classes));
}

}  // namespace sb::workload
