// sbtop — terminal dashboard for SmartBalance `#sb-tsdb v1` exports.
//
// Reads the continuous-telemetry CSV written by `sbsim --timeseries=` (a
// single node or a fleet) and renders the run as it evolved in simulated
// time: per-signal sparklines over the sampled frames, a fleet node-health
// rollup (node.<i>.* gauges), and SLO burn gauges (slo.burn.* against
// slo.breached.*). Like sbaudit, sbtop only parses the export file — it
// depends on nothing but the shared number codec (common/spec.h), never on
// the simulator libraries, so it stays honest about `#sb-tsdb v1` being a
// self-describing interface.
//
// Modes:
//   sbtop export.csv              follow mode: re-read and redraw every
//                                 --interval-ms until interrupted (watch a
//                                 long sweep converge from another shell)
//   sbtop --once export.csv       render one snapshot and exit
//   sbtop --once --check ...      ...and exit nonzero unless the export
//                                 parsed cleanly with >= 1 frame (CI smoke)
//   sbtop --plain ...             ASCII bars instead of Unicode sparklines
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/spec.h"

namespace {

constexpr int kSparkWidth = 32;

struct Series {
  std::vector<double> values;  // one point per frame, frame order
  double last = 0;
  double lo = 0;
  double hi = 0;
};

struct RunData {
  int index = 0;
  std::string label;
  std::uint64_t window_ns = 0;
  std::uint64_t dropped = 0;
  std::uint64_t first_t_ns = 0;
  std::uint64_t last_t_ns = 0;
  std::size_t frames = 0;
  // Insertion-ordered signal list (the sampler's record order groups
  // related signals together), values keyed by name.
  std::vector<std::string> order;
  std::map<std::string, Series> series;
};

struct Export {
  std::vector<RunData> runs;
  std::string error;  // non-empty: parse failed
};

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

Export parse(const std::string& path) {
  Export out;
  std::ifstream in(path);
  if (!in) {
    out.error = "cannot open " + path;
    return out;
  }
  std::string line;
  if (!std::getline(in, line) || line != "#sb-tsdb v1") {
    out.error = path + ": not a #sb-tsdb v1 export";
    return out;
  }
  if (!std::getline(in, line) || !starts_with(line, "#columns sample ")) {
    out.error = path + ": missing #columns line";
    return out;
  }
  RunData* cur = nullptr;
  std::uint64_t cur_t = 0;
  bool have_t = false;
  int lineno = 2;
  const auto fail = [&](const std::string& why) {
    out.error = path + ":" + std::to_string(lineno) + ": " + why;
    return out;
  };
  // Reads the `key=<u64>` token of a #meta / #counters line into *field;
  // false when its value is malformed.
  const auto read_u64 = [&](const std::string& key, std::uint64_t* field) {
    for (const std::string& tok : sb::spec::split(line, ' ')) {
      if (!starts_with(tok, key.c_str())) continue;
      const auto v = sb::spec::parse_u64(tok.substr(key.size()));
      if (!v) return false;
      *field = *v;
    }
    return true;
  };
  while (std::getline(in, line)) {
    ++lineno;
    if (starts_with(line, "#run ")) {
      const std::string rest = line.substr(5);
      const std::size_t sp = rest.find(' ');
      const auto index = sb::spec::parse_int(rest.substr(0, sp), 0,
                                             std::numeric_limits<int>::max());
      if (!index) return fail("bad run index");
      out.runs.emplace_back();
      cur = &out.runs.back();
      cur->index = static_cast<int>(*index);
      if (sp != std::string::npos) cur->label = rest.substr(sp + 1);
      have_t = false;
    } else if (starts_with(line, "#meta ")) {
      if (cur == nullptr) continue;
      if (!read_u64("window_ns=", &cur->window_ns)) return fail("bad window");
    } else if (starts_with(line, "#counters ")) {
      if (cur == nullptr) continue;
      if (!read_u64("dropped=", &cur->dropped)) return fail("bad dropped");
    } else if (starts_with(line, "sample,")) {
      if (cur == nullptr) return fail("sample row before any #run");
      const auto f = sb::spec::split(line, ',');
      if (f.size() != 4) return fail("malformed row");
      const auto t_ns = sb::spec::parse_u64(f[1]);
      const auto v = sb::spec::parse_double(f[3]);
      if (!t_ns || !v) return fail("malformed number in row");
      const std::string& signal = f[2];
      const double value = *v;
      if (!have_t || *t_ns != cur_t) {
        if (!have_t) cur->first_t_ns = *t_ns;
        have_t = true;
        cur_t = *t_ns;
        cur->last_t_ns = *t_ns;
        ++cur->frames;
      }
      auto [it, fresh] = cur->series.try_emplace(signal);
      if (fresh) it->second.lo = it->second.hi = value;
      if (fresh) cur->order.push_back(signal);
      Series& s = it->second;
      s.values.push_back(value);
      s.last = value;
      s.lo = std::min(s.lo, value);
      s.hi = std::max(s.hi, value);
    }
    // #summary and unknown directives are ignored: sbtop is a viewer, the
    // strict validator is tools/check_timeseries.py.
  }
  if (out.runs.empty()) out.error = path + ": no run blocks";
  return out;
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

const char* const kSparks[] = {"\xe2\x96\x81", "\xe2\x96\x82", "\xe2\x96\x83",
                               "\xe2\x96\x84", "\xe2\x96\x85", "\xe2\x96\x86",
                               "\xe2\x96\x87", "\xe2\x96\x88"};
const char* const kPlain[] = {".", ":", "-", "=", "+", "*", "#", "@"};

std::string sparkline(const std::vector<double>& v, bool plain) {
  if (v.empty()) return "";
  const std::size_t n = std::min<std::size_t>(v.size(), kSparkWidth);
  const std::size_t begin = v.size() - n;
  double lo = v[begin], hi = v[begin];
  for (std::size_t i = begin; i < v.size(); ++i) {
    if (!std::isfinite(v[i])) continue;
    lo = std::min(lo, v[i]);
    hi = std::max(hi, v[i]);
  }
  const double span = hi - lo;
  std::string out;
  for (std::size_t i = begin; i < v.size(); ++i) {
    if (!std::isfinite(v[i])) {
      out += "?";
      continue;
    }
    const int bucket =
        span <= 0 ? 0
                  : std::min(7, static_cast<int>((v[i] - lo) / span * 7.999));
    out += (plain ? kPlain : kSparks)[bucket];
  }
  return out;
}

std::string fmt(double v) {
  char buf[32];
  const double a = std::fabs(v);
  if (!std::isfinite(v))
    std::snprintf(buf, sizeof buf, "%g", v);
  else if (a != 0 && (a >= 1e6 || a < 1e-2))
    std::snprintf(buf, sizeof buf, "%.3e", v);
  else if (a >= 100 || v == static_cast<std::int64_t>(v))
    std::snprintf(buf, sizeof buf, "%.0f", v);
  else
    std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

std::string burn_gauge(double burn, bool breached, bool plain) {
  constexpr int kWidth = 20;
  const int fill = std::clamp(static_cast<int>(burn * kWidth + 0.5), 0,
                              kWidth);
  std::string bar = "[";
  for (int i = 0; i < kWidth; ++i) bar += i < fill ? (plain ? "#" : "\xe2\x96\x88") : " ";
  bar += "]";
  bar += breached ? " BREACHED" : " ok";
  return bar;
}

void render(const Export& e, const std::string& path, bool plain) {
  for (const RunData& run : e.runs) {
    std::printf("sbtop — %s  run %d%s%s\n", path.c_str(), run.index,
                run.label.empty() ? "" : "  ", run.label.c_str());
    std::printf(
        "  window %.1f ms   frames %zu   span %.1f–%.1f ms   dropped %llu\n",
        run.window_ns / 1e6, run.frames, run.first_t_ns / 1e6,
        run.last_t_ns / 1e6,
        static_cast<unsigned long long>(run.dropped));

    // Headline signals: everything that is not per-node health or SLO
    // bookkeeping, in sampler record order.
    std::printf("  %-22s %-*s %12s %12s %12s\n", "signal", kSparkWidth,
                "trend", "last", "min", "max");
    for (const std::string& name : run.order) {
      if (starts_with(name, "node.") || starts_with(name, "slo.")) continue;
      const Series& s = run.series.at(name);
      std::printf("  %-22s %-*s %12s %12s %12s\n", name.c_str(), kSparkWidth,
                  sparkline(s.values, plain).c_str(), fmt(s.last).c_str(),
                  fmt(s.lo).c_str(), fmt(s.hi).c_str());
    }

    // Fleet node health rollup: node.<i>.<gauge> -> one line per node.
    std::map<int, std::vector<std::pair<std::string, const Series*>>> nodes;
    for (const std::string& name : run.order) {
      if (!starts_with(name, "node.")) continue;
      const std::size_t dot = name.find('.', 5);
      if (dot == std::string::npos) continue;
      const auto node = sb::spec::parse_int(
          std::string_view(name).substr(5, dot - 5), 0,
          std::numeric_limits<int>::max());
      if (!node) continue;
      nodes[static_cast<int>(*node)].emplace_back(name.substr(dot + 1),
                                                  &run.series.at(name));
    }
    if (!nodes.empty()) {
      std::printf("  nodes:\n");
      for (const auto& [node, gauges] : nodes) {
        std::printf("    node %-3d", node);
        for (const auto& [gauge, s] : gauges)
          std::printf(" %s=%s", gauge.c_str(), fmt(s->last).c_str());
        std::printf("\n");
      }
    }

    // SLO burn gauges: the engine records slo.burn.<signal> per frame and
    // slo.breached.<signal> as a 0/1 state line.
    bool slo_header = false;
    for (const std::string& name : run.order) {
      if (!starts_with(name, "slo.burn.")) continue;
      if (!slo_header) {
        std::printf("  slo:\n");
        slo_header = true;
      }
      const std::string objective = name.substr(9);
      const Series& burn = run.series.at(name);
      const auto breached = run.series.find("slo.breached." + objective);
      const bool is_breached =
          breached != run.series.end() && breached->second.last != 0;
      std::printf("    %-20s burn %-6s %s\n", objective.c_str(),
                  fmt(burn.last).c_str(),
                  burn_gauge(burn.last, is_breached, plain).c_str());
    }
    std::printf("\n");
  }
}

void usage() {
  std::fprintf(
      stderr,
      "usage: sbtop [--once] [--check] [--plain] [--interval-ms=N] "
      "<export.csv>\n"
      "  --once           render one snapshot and exit\n"
      "  --check          exit nonzero unless the export parsed with >= 1 "
      "frame\n"
      "  --plain          ASCII art only (no Unicode sparklines)\n"
      "  --interval-ms=N  follow-mode refresh cadence (default 1000)\n");
}

}  // namespace

int main(int argc, char** argv) {
  bool once = false, check = false, plain = false;
  int interval_ms = 1000;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--once") {
      once = true;
    } else if (arg == "--check") {
      check = true;
    } else if (arg == "--plain") {
      plain = true;
    } else if (starts_with(arg, "--interval-ms=")) {
      interval_ms = static_cast<int>(sb::spec::flag_int(
          "sbtop", "--interval-ms", std::string_view(arg).substr(14), 1,
          3'600'000));
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "sbtop: unknown option %s\n", arg.c_str());
      usage();
      return 2;
    } else if (path.empty()) {
      path = arg;
    } else {
      std::fprintf(stderr, "sbtop: more than one export path\n");
      return 2;
    }
  }
  if (path.empty()) {
    usage();
    return 2;
  }

  while (true) {
    const Export e = parse(path);
    if (!e.error.empty()) {
      std::fprintf(stderr, "sbtop: %s\n", e.error.c_str());
      if (once || check) return 1;
    } else {
      if (!once) std::printf("\x1b[2J\x1b[H");  // clear, home
      render(e, path, plain);
      if (check) {
        for (const RunData& run : e.runs) {
          if (run.frames == 0) {
            std::fprintf(stderr, "sbtop: run %d has no frames\n", run.index);
            return 1;
          }
        }
      }
    }
    if (once) return e.error.empty() ? 0 : 1;
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
}
