#include "obs/slo.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "common/spec.h"
#include "obs/trace.h"

namespace sb::obs {

namespace {

constexpr double kBurnEpsilon = 1e-12;

bool valid_signal(std::string_view s) {
  if (s.empty()) return false;
  const auto alpha = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
  };
  if (!alpha(s.front())) return false;
  for (char c : s) {
    if (!alpha(c) && !(c >= '0' && c <= '9') && c != '.') return false;
  }
  return true;
}

SloObjective parse_objective(std::string_view token) {
  SloObjective o;
  const std::size_t op = token.find_first_of("<>");
  if (op == std::string_view::npos) {
    throw std::invalid_argument("slo config: objective '" +
                                std::string(token) +
                                "' needs '<' or '>' after the signal name");
  }
  o.signal = std::string(token.substr(0, op));
  if (!valid_signal(o.signal)) {
    throw std::invalid_argument("slo config: bad signal name '" + o.signal +
                                "'");
  }
  o.upper = token[op] == '<';
  const std::vector<std::string> fields =
      spec::split(token.substr(op + 1), ':');
  const auto bad = [](std::string_view what, std::string_view tok,
                      std::string_view range) {
    return std::invalid_argument("slo config: bad " + std::string(what) +
                                 " '" + std::string(tok) + "' (want " +
                                 std::string(range) + ")");
  };
  const auto threshold = spec::parse_double(fields.front());
  if (!threshold) throw bad("threshold", fields.front(), "a finite number");
  o.threshold = *threshold;
  for (std::size_t f = 1; f < fields.size(); ++f) {
    const std::string_view opt = fields[f];
    if (opt.rfind("burn=", 0) == 0) {
      // [0, 1): the largest double below 1 is the inclusive upper bound.
      const auto burn =
          spec::parse_double(opt.substr(5), 0.0, std::nextafter(1.0, 0.0));
      if (!burn) throw bad("burn fraction", opt.substr(5), "[0, 1)");
      o.burn = *burn;
    } else if (opt.rfind("window=", 0) == 0) {
      const auto ms = spec::parse_int(opt.substr(7), 1, 600'000);
      if (!ms) throw bad("window ms", opt.substr(7), "[1, 600000]");
      o.window = milliseconds(*ms);
    } else {
      throw std::invalid_argument("slo config: unknown option '" +
                                  std::string(opt) + "'");
    }
  }
  return o;
}

}  // namespace

std::string SloObjective::canonical() const {
  std::string out = signal;
  out += upper ? '<' : '>';
  spec::append_double(out, threshold);
  out += ":burn=";
  spec::append_double(out, burn);
  // Integer print: append_double would render e.g. 100000 as "1e+05",
  // which the integer window parser rightly rejects on round-trip.
  out += ":window=";
  spec::append_int(out, window / milliseconds(1));
  return out;
}

SloConfig SloConfig::parse(const std::string& text) {
  if (text.empty()) {
    throw std::invalid_argument("slo config: empty spec");
  }
  SloConfig cfg;
  for (const std::string& objective : spec::split(text, ',')) {
    cfg.objectives.push_back(parse_objective(objective));
  }
  return cfg;
}

std::string SloConfig::canonical() const {
  std::string out;
  for (std::size_t i = 0; i < objectives.size(); ++i) {
    if (i) out += ',';
    out += objectives[i].canonical();
  }
  return out;
}

SloEngine::SloEngine(SloConfig cfg, TimeNs sample_window)
    : cfg_(std::move(cfg)),
      sample_window_(sample_window > 0 ? sample_window : milliseconds(10)) {
  states_.resize(cfg_.objectives.size());
}

void SloEngine::on_frame(TimeseriesRecorder& rec, MetricsRegistry& metrics,
                         EpochTracer* tracer, std::uint64_t epoch) {
  if (!resolved_) {
    for (std::size_t i = 0; i < states_.size(); ++i) {
      State& st = states_[i];
      const SloObjective& o = cfg_.objectives[i];
      st.signal_id = rec.intern(o.signal);
      st.burn_id = rec.intern("slo.burn." + o.signal);
      st.breached_id = rec.intern("slo.breached." + o.signal);
      st.window_frames = static_cast<std::size_t>(
          std::max<TimeNs>(1, o.window / sample_window_));
      st.ring.assign(st.window_frames, 0);
    }
    resolved_ = true;
  }
  bool any_breached = false;
  for (std::size_t i = 0; i < states_.size(); ++i) {
    State& st = states_[i];
    const SloObjective& o = cfg_.objectives[i];
    const double v =
        rec.frame_value(st.signal_id, std::numeric_limits<double>::quiet_NaN());
    if (std::isnan(v)) continue;  // signal absent from this frame
    const bool violation = o.upper ? v >= o.threshold : v <= o.threshold;
    if (st.filled == st.window_frames) {
      st.violating -= st.ring[st.head];
    } else {
      ++st.filled;
    }
    st.ring[st.head] = violation ? 1 : 0;
    st.violating += violation ? 1 : 0;
    st.head = (st.head + 1) % st.window_frames;

    metrics.counter("slo.samples").add();
    if (violation) metrics.counter("slo.violations").add();

    // Burn rate is the violating fraction of the *full* window, so the
    // budget means the same thing while the window is still filling.
    const double burn =
        static_cast<double>(st.violating) /
        static_cast<double>(st.window_frames);
    const bool over =
        static_cast<double>(st.violating) >
        o.burn * static_cast<double>(st.window_frames) + kBurnEpsilon;
    if (over && !st.breached) {
      st.breached = true;
      ++breaches_;
      metrics.counter("slo.breaches").add();
      if (tracer != nullptr) {
        tracer->instant("slo.breach", rec.frame_t_ns(), epoch,
                        {{"objective", static_cast<double>(i)},
                         {"value", v},
                         {"burn", burn}});
      }
    } else if (!over && st.breached) {
      st.breached = false;
      ++recoveries_;
      metrics.counter("slo.recoveries").add();
      if (tracer != nullptr) {
        tracer->instant("slo.recovered", rec.frame_t_ns(), epoch,
                        {{"objective", static_cast<double>(i)},
                         {"value", v},
                         {"burn", burn}});
      }
    }
    rec.record(st.burn_id, burn);
    rec.record(st.breached_id, st.breached ? 1.0 : 0.0);
    any_breached = any_breached || st.breached;
  }
  if (any_breached) {
    ++breach_frames_;
    metrics.counter("slo.breach_samples").add();
  }
}

}  // namespace sb::obs
