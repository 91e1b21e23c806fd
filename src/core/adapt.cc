#include "core/adapt.h"

#include <cmath>
#include <stdexcept>

#include "common/spec.h"

namespace sb::core {
namespace {

/// Same guarded signed relative residual as the audit recorder: a thread
/// that retired essentially nothing says nothing about the predictor.
double relative_residual(double observed, double predicted) {
  if (!(std::abs(observed) > 1e-12)) return 0.0;
  return (observed - predicted) / observed;
}

[[noreturn]] void bad(const char* what, const std::string& entry) {
  throw std::invalid_argument("Adaptation: bad " + std::string(what) +
                              " in '" + entry + "'");
}

/// The number `tok` of `entry`, which must lie in [lo, hi].
double field(const std::string& tok, const std::string& entry,
             const char* what, double lo, double hi) {
  const auto v = spec::parse_double(tok, lo, hi);
  if (!v) bad(what, entry);
  return *v;
}

void parse_entry(const std::string& entry, AdaptationConfig* cfg) {
  const std::vector<std::string> parts = spec::split(entry, ':');
  const std::string& key = parts[0];
  if (key == "bias") {
    if (parts.size() > 3) {
      throw std::invalid_argument("Adaptation: malformed entry '" + entry +
                                  "' (want bias[:alpha[:clamp]])");
    }
    cfg->bias = true;
    if (parts.size() >= 2) {
      cfg->bias_alpha = field(parts[1], entry, "alpha", spec::kAboveZero, 1.0);
    }
    if (parts.size() == 3) {
      cfg->gain_clamp = field(parts[2], entry, "clamp", 0.0, 4.0);
    }
  } else if (key == "rls") {
    if (parts.size() > 4) {
      throw std::invalid_argument("Adaptation: malformed entry '" + entry +
                                  "' (want rls[:lambda[:p0[:reset]]])");
    }
    cfg->rls = true;
    if (parts.size() >= 2) {
      cfg->rls_lambda = field(parts[1], entry, "lambda", 0.5, 1.0);
    }
    if (parts.size() >= 3) {
      cfg->rls_p0 = field(parts[2], entry, "p0", spec::kAboveZero, 1e12);
    }
    if (parts.size() == 4) {
      const auto reset = spec::parse_int(parts[3], 0, 1);
      if (!reset) bad("reset", entry);
      cfg->rls_reset_on_drift = *reset == 1;
    }
  } else if (key == "drift") {
    if (parts.size() < 2 || parts.size() > 3) {
      throw std::invalid_argument("Adaptation: malformed entry '" + entry +
                                  "' (want drift:threshold[:min_joins])");
    }
    cfg->drift_threshold =
        field(parts[1], entry, "threshold", spec::kAboveZero, 100.0);
    if (parts.size() == 3) {
      const auto joins = spec::parse_u64(parts[2], 1, 1000000);
      if (!joins) bad("min_joins", entry);
      cfg->drift_min_joins = *joins;
    }
  } else {
    throw std::invalid_argument("Adaptation: unknown entry '" + entry + "'");
  }
}

}  // namespace

AdaptationConfig AdaptationConfig::parse(const std::string& text) {
  AdaptationConfig cfg;
  for (const std::string& entry : spec::split(text, ',')) {
    if (!entry.empty()) parse_entry(entry, &cfg);
  }
  return cfg;
}

std::string AdaptationConfig::to_string() const {
  std::string out;
  const auto entry = [&](const char* key) {
    if (!out.empty()) out += ',';
    out += key;
  };
  const auto value = [&](double v) {
    out += ':';
    spec::append_double(out, v);
  };
  if (bias) {
    entry("bias");
    value(bias_alpha);
    value(gain_clamp);
  }
  if (rls) {
    entry("rls");
    value(rls_lambda);
    value(rls_p0);
    out += rls_reset_on_drift ? ":1" : ":0";
  }
  const AdaptationConfig defaults;
  if (drift_threshold != defaults.drift_threshold ||
      drift_min_joins != defaults.drift_min_joins) {
    entry("drift");
    value(drift_threshold);
    out += ':';
    spec::append_u64(out, drift_min_joins);
  }
  return out;
}

bool AdaptationConfig::operator==(const AdaptationConfig& o) const {
  return bias == o.bias && bias_alpha == o.bias_alpha &&
         gain_clamp == o.gain_clamp && rls == o.rls &&
         rls_lambda == o.rls_lambda && rls_p0 == o.rls_p0 &&
         rls_reset_on_drift == o.rls_reset_on_drift &&
         drift_threshold == o.drift_threshold &&
         drift_min_joins == o.drift_min_joins;
}

// ---------------------------------------------------------------------------
// RlsFilter
// ---------------------------------------------------------------------------

RlsFilter::RlsFilter(double lambda, double p0) : lambda_(lambda), p0_(p0) {
  reset();
}

void RlsFilter::reset() {
  p_.fill(0.0);
  for (std::size_t i = 0; i < kNumFeatures; ++i) {
    p_[i * kNumFeatures + i] = p0_;
  }
}

void RlsFilter::update(const std::array<double, kNumFeatures>& x, double y,
                       double w, std::array<double, kNumFeatures>& theta) {
  if (!std::isfinite(y) || !std::isfinite(w) || w <= 0.0) return;
  // The batch trainer weights rows as x' = w·x, y' = w·y; folding the same
  // scaling in here makes λ = 1 RLS bit-for-bit the recursive form of its
  // weighted ridge normal equations.
  std::array<double, kNumFeatures> xw;
  for (std::size_t i = 0; i < kNumFeatures; ++i) {
    const double v = w * x[i];
    if (!std::isfinite(v)) return;
    xw[i] = v;
  }
  const double yw = w * y;

  // v = P x'
  std::array<double, kNumFeatures> v;
  for (std::size_t i = 0; i < kNumFeatures; ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < kNumFeatures; ++j) {
      s += p_[i * kNumFeatures + j] * xw[j];
    }
    v[i] = s;
  }
  double denom = lambda_;
  for (std::size_t i = 0; i < kNumFeatures; ++i) denom += xw[i] * v[i];
  if (!(denom > 0.0) || !std::isfinite(denom)) return;

  // Gain, innovation, coefficient update.
  double innov = yw;
  for (std::size_t i = 0; i < kNumFeatures; ++i) innov -= theta[i] * xw[i];
  for (std::size_t i = 0; i < kNumFeatures; ++i) {
    theta[i] += (v[i] / denom) * innov;
  }

  // P = (P - k vᵀ) / λ with k = v/denom, then explicit symmetrization: the
  // rank-1 downdate is symmetric in exact arithmetic but drifts in floating
  // point, and the SPD invariant is what the property tests pin.
  for (std::size_t i = 0; i < kNumFeatures; ++i) {
    const double ki = v[i] / denom;
    for (std::size_t j = 0; j < kNumFeatures; ++j) {
      p_[i * kNumFeatures + j] =
          (p_[i * kNumFeatures + j] - ki * v[j]) / lambda_;
    }
  }
  for (std::size_t i = 0; i < kNumFeatures; ++i) {
    for (std::size_t j = i + 1; j < kNumFeatures; ++j) {
      const double m =
          0.5 * (p_[i * kNumFeatures + j] + p_[j * kNumFeatures + i]);
      p_[i * kNumFeatures + j] = m;
      p_[j * kNumFeatures + i] = m;
    }
  }
  ++updates_;
}

// ---------------------------------------------------------------------------
// OnlineAdapter
// ---------------------------------------------------------------------------

OnlineAdapter::OnlineAdapter(const AdaptationConfig& cfg, PredictorModel* model)
    : cfg_(cfg), model_(model) {}

OnlineAdapter::PairState& OnlineAdapter::pair(std::int32_t src_type,
                                              std::int32_t dst_type) {
  PairState& p = pairs_[{src_type, dst_type}];
  // Θ only drives cross-type extrapolation (same-type forecasts are the
  // measured IPC), so same-type pairs never carry an RLS filter.
  if (cfg_.rls && p.rls.empty() && src_type != dst_type) {
    p.rls.emplace_back(cfg_.rls_lambda, cfg_.rls_p0);
  }
  return p;
}

double OnlineAdapter::clamp_gain(double g) const {
  const double hi = 1.0 + cfg_.gain_clamp;
  const double lo = 1.0 / hi;
  if (!(g > lo)) return lo;  // also catches NaN / negative denominators
  if (g > hi) return hi;
  return g;
}

AdaptPassStats OnlineAdapter::observe(
    std::uint64_t epoch, const std::vector<ThreadObservation>& obs) {
  AdaptPassStats stats;
  const bool contiguous = pending_valid_ && epoch == pending_epoch_ + 1;
  if (contiguous) {
    for (const Pending& f : pending_) {
      const ThreadObservation* match = nullptr;
      for (const ThreadObservation& o : obs) {
        if (o.tid == f.tid) {
          match = &o;
          break;
        }
      }
      // Same validity rules as the audit join: the thread must really have
      // run (measured) on the predicted core of the predicted type.
      if (match == nullptr || !match->measured || match->core != f.core ||
          match->core_type != f.dst_type) {
        continue;
      }
      PairState& p = pair(f.src_type, f.dst_type);
      ++p.joins;
      ++joins_;
      ++stats.joined;

      // Tier 1: signed residuals of the *raw* forecasts (adapting on the
      // corrected ones would compound the correction into itself).
      const double obs_gips = match->ips / 1e9;
      const double gerr = relative_residual(obs_gips, f.raw_gips);
      const double perr = relative_residual(match->power_w, f.raw_w);
      const double a = cfg_.bias_alpha;
      p.sewma_gips = (1.0 - a) * p.sewma_gips + a * gerr;
      p.sewma_power = (1.0 - a) * p.sewma_power + a * perr;
      p.aewma_gips = (1.0 - a) * p.aewma_gips + a * std::abs(gerr);
      p.aewma_power = (1.0 - a) * p.aewma_power + a * std::abs(perr);
      if (cfg_.bias) {
        p.gain_gips = clamp_gain(1.0 / (1.0 - p.sewma_gips));
        p.gain_power = clamp_gain(1.0 / (1.0 - p.sewma_power));
      }

      // Tier 2: fold the validated sample into Θ. y is the observed IPC on
      // the destination type; the weight matches the batch trainer.
      // Cross-type only — same-type pairs have no filter (see pair()).
      if (cfg_.rls && !p.rls.empty() && model_ != nullptr &&
          std::isfinite(match->ipc)) {
        std::array<double, kNumFeatures> theta =
            model_->theta(f.src_type, f.dst_type);
        const double w = 1.0 / std::max(match->ipc, 1e-3);
        const std::uint64_t before = p.rls[0].updates();
        p.rls[0].update(f.x, match->ipc, w, theta);
        if (p.rls[0].updates() != before) {
          model_->set_theta(f.src_type, f.dst_type, theta);
          ++rls_updates_;
          ++stats.rls_updates;
        }
      }

      // Drift detector: debounced rising edge on the |residual| EWMAs,
      // re-armed on recovery — the audit recorder's semantics, but wired to
      // covariance reset (repair) rather than degraded-mode escalation.
      const bool over = p.aewma_gips > cfg_.drift_threshold ||
                        p.aewma_power > cfg_.drift_threshold;
      if (over && !p.drift_active && p.joins >= cfg_.drift_min_joins) {
        p.drift_active = true;
        if (cfg_.rls && cfg_.rls_reset_on_drift && !p.rls.empty()) {
          p.rls[0].reset();
          ++p.cov_resets;
          ++cov_resets_;
          ++stats.cov_resets;
        }
      } else if (!over && p.drift_active) {
        p.drift_active = false;
      }
    }
  }
  pending_.clear();
  pending_valid_ = false;
  return stats;
}

void OnlineAdapter::begin_forecasts(std::uint64_t epoch) {
  pending_.clear();
  pending_epoch_ = epoch;
  pending_valid_ = true;
}

void OnlineAdapter::add_forecast(std::int64_t tid, std::int32_t core,
                                 std::int32_t src_type, std::int32_t dst_type,
                                 double raw_gips, double raw_w,
                                 const std::array<double, kNumFeatures>& x) {
  if (!pending_valid_) return;
  if (src_type < 0 || dst_type < 0) return;
  Pending f;
  f.tid = tid;
  f.core = core;
  f.src_type = src_type;
  f.dst_type = dst_type;
  f.raw_gips = raw_gips;
  f.raw_w = raw_w;
  f.x = x;
  pending_.push_back(f);
}

double OnlineAdapter::gips_multiplier(std::int32_t src_type,
                                      std::int32_t dst_type) const {
  if (!cfg_.bias || src_type < 0 || dst_type < 0) return 1.0;
  const auto it = pairs_.find({src_type, dst_type});
  return it == pairs_.end() ? 1.0 : it->second.gain_gips;
}

double OnlineAdapter::power_multiplier(std::int32_t src_type,
                                       std::int32_t dst_type) const {
  if (!cfg_.bias || src_type < 0 || dst_type < 0) return 1.0;
  const auto it = pairs_.find({src_type, dst_type});
  return it == pairs_.end() ? 1.0 : it->second.gain_power;
}

std::vector<AdaptPairState> OnlineAdapter::pair_states() const {
  std::vector<AdaptPairState> out;
  out.reserve(pairs_.size());
  for (const auto& [key, p] : pairs_) {
    AdaptPairState st;
    st.src_type = key.first;
    st.dst_type = key.second;
    st.joins = p.joins;
    st.gain_gips = p.gain_gips;
    st.gain_power = p.gain_power;
    st.ewma_gips = p.sewma_gips;
    st.ewma_power = p.sewma_power;
    st.cov_resets = p.cov_resets;
    out.push_back(st);
  }
  return out;
}

const RlsFilter* OnlineAdapter::rls_filter(std::int32_t src_type,
                                           std::int32_t dst_type) const {
  const auto it = pairs_.find({src_type, dst_type});
  if (it == pairs_.end() || it->second.rls.empty()) return nullptr;
  return &it->second.rls[0];
}

}  // namespace sb::core
