#include "fleet/fleet_config.h"

#include <stdexcept>
#include <vector>

#include "common/spec.h"

namespace sb::fleet {

namespace {

int parse_nodes(const std::string& tok) {
  const auto n = spec::parse_int(tok, 1, 1024);
  if (!n) {
    throw std::invalid_argument("fleet config: bad node count '" + tok +
                                "' (want an integer in [1, 1024])");
  }
  return static_cast<int>(*n);
}

double parse_rate(const std::string& tok) {
  const auto v = spec::parse_double(tok, spec::kAboveZero, 1e7);
  if (!v) {
    throw std::invalid_argument("fleet config: bad rate '" + tok +
                                "' (want a number in (0, 1e7])");
  }
  return *v;
}

}  // namespace

const char* to_string(DispatchPolicy p) {
  switch (p) {
    case DispatchPolicy::kRoundRobin: return "rr";
    case DispatchPolicy::kLeastLoaded: return "least";
    case DispatchPolicy::kEnergyAware: return "energy";
  }
  return "?";
}

DispatchPolicy dispatch_policy_from(const std::string& name) {
  if (name == "rr" || name == "roundrobin" || name == "round-robin") {
    return DispatchPolicy::kRoundRobin;
  }
  if (name == "least" || name == "least-loaded" || name == "leastloaded") {
    return DispatchPolicy::kLeastLoaded;
  }
  if (name == "energy" || name == "energy-aware" || name == "energyaware") {
    return DispatchPolicy::kEnergyAware;
  }
  throw std::invalid_argument("fleet config: unknown dispatch policy '" +
                              name + "' (want rr | least | energy)");
}

FleetConfig FleetConfig::parse(const std::string& text) {
  const auto parts = spec::split(text, ':');
  if (parts.size() > 3) {
    throw std::invalid_argument("fleet config: too many fields in '" + text +
                                "' (grammar: N[:policy[:rate]])");
  }
  FleetConfig cfg;
  cfg.nodes = parse_nodes(parts[0]);
  if (parts.size() >= 2) cfg.policy = dispatch_policy_from(parts[1]);
  if (parts.size() >= 3) cfg.rate_hz = parse_rate(parts[2]);
  cfg.validate();
  return cfg;
}

std::string FleetConfig::canonical() const {
  std::string out = std::to_string(nodes) + ":" + to_string(policy) + ":";
  spec::append_double(out, rate_hz);
  return out;
}

void FleetConfig::validate() const {
  if (nodes < 1 || nodes > 1024) {
    throw std::invalid_argument("FleetConfig: nodes out of [1, 1024]");
  }
  if (!(rate_hz > 0) || !(rate_hz <= 1e7)) {
    throw std::invalid_argument("FleetConfig: rate_hz out of (0, 1e7]");
  }
  if (duration <= 0) {
    throw std::invalid_argument("FleetConfig: duration must be > 0");
  }
  if (quantum <= 0 || quantum > duration) {
    throw std::invalid_argument("FleetConfig: quantum out of (0, duration]");
  }
  if (node_policy != "smartbalance" && node_policy != "vanilla") {
    throw std::invalid_argument(
        "FleetConfig: node_policy must be smartbalance or vanilla");
  }
  if (!(burst_factor >= 1.0) || !(burst_factor <= 1e3)) {
    throw std::invalid_argument("FleetConfig: burst_factor out of [1, 1e3]");
  }
  if (zipf_theta < 0 || zipf_theta > 16.0) {
    throw std::invalid_argument("FleetConfig: zipf_theta out of [0, 16]");
  }
  if (!(load_cap >= 0.5) || !(load_cap <= 64.0)) {
    throw std::invalid_argument("FleetConfig: load_cap out of [0.5, 64]");
  }
  if (consolidation_bias < 0 || consolidation_bias > 10.0) {
    throw std::invalid_argument(
        "FleetConfig: consolidation_bias out of [0, 10]");
  }
  if (obs.audit) {
    throw std::invalid_argument(
        "FleetConfig: obs.audit (a fleet has no audit recorder)");
  }
}

}  // namespace sb::fleet
