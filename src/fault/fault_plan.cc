#include "fault/fault_plan.h"

#include <fstream>
#include <stdexcept>

#include "common/spec.h"

namespace sb::fault {
namespace {

constexpr const char* kNames[kNumFaultClasses] = {
    "wrap", "sat", "drop", "dup", "stuck", "noise", "delay", "reject",
    "blackout"};

[[noreturn]] void bad(const char* what, const std::string& entry) {
  throw std::invalid_argument("FaultPlan: bad " + std::string(what) + " in '" +
                              entry + "'");
}

FaultSpec parse_entry(const std::string& entry) {
  const std::vector<std::string> parts = spec::split(entry, ':');
  if (parts.size() < 2 || parts.size() > 4) {
    throw std::invalid_argument("FaultPlan: malformed entry '" + entry +
                                "' (want class:rate[:magnitude[:duration]])");
  }
  FaultSpec out;
  if (!fault_class_from_name(parts[0], &out.cls)) {
    throw std::invalid_argument("FaultPlan: unknown fault class '" + parts[0] +
                                "'");
  }
  const auto rate = spec::parse_double(parts[1], 0.0, 1.0);
  if (!rate) bad("rate", entry);
  out.rate = *rate;
  if (parts.size() >= 3) {
    const auto magnitude = spec::parse_double(parts[2], 0.0);
    if (!magnitude) bad("magnitude", entry);
    out.magnitude = *magnitude;
  }
  if (parts.size() == 4) {
    const auto duration = spec::parse_int(parts[3], 1, 1024);
    if (!duration) bad("duration", entry);
    out.duration_epochs = static_cast<int>(*duration);
  }
  return out;
}

}  // namespace

const char* fault_class_name(FaultClass cls) {
  return kNames[static_cast<int>(cls)];
}

bool fault_class_from_name(const std::string& name, FaultClass* out) {
  for (int i = 0; i < kNumFaultClasses; ++i) {
    if (name == kNames[i]) {
      *out = static_cast<FaultClass>(i);
      return true;
    }
  }
  return false;
}

bool FaultPlan::empty() const {
  for (const auto& s : specs_) {
    if (s.rate > 0.0) return false;
  }
  return true;
}

const FaultSpec* FaultPlan::spec_of(FaultClass cls) const {
  for (const auto& s : specs_) {
    if (s.cls == cls && s.rate > 0.0) return &s;
  }
  return nullptr;
}

void FaultPlan::set(FaultSpec spec) {
  for (auto& s : specs_) {
    if (s.cls == spec.cls) {
      s = spec;
      return;
    }
  }
  specs_.push_back(spec);
}

FaultPlan FaultPlan::parse(const std::string& text, std::uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  for (const std::string& entry : spec::split(text, ',')) {
    if (!entry.empty()) plan.set(parse_entry(entry));
  }
  return plan;
}

FaultPlan FaultPlan::load_csv(const std::string& path, std::uint64_t seed) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("FaultPlan: cannot open " + path);
  FaultPlan plan;
  plan.seed = seed;
  std::string line;
  if (!std::getline(in, line)) {
    throw std::runtime_error("FaultPlan: empty file " + path);
  }
  if (line.rfind("fault,rate", 0) != 0) {
    throw std::runtime_error(
        "FaultPlan: bad header (want fault,rate,magnitude,duration_epochs) "
        "in " +
        path);
  }
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    // Reuse the CLI entry grammar: swap commas for colons.
    for (auto& c : line) {
      if (c == ',') c = ':';
    }
    try {
      plan.set(parse_entry(line));
    } catch (const std::invalid_argument& e) {
      throw std::runtime_error(std::string(e.what()) + " in " + path);
    }
  }
  return plan;
}

FaultPlan FaultPlan::uniform(double rate, std::uint64_t seed) {
  if (!(rate >= 0.0) || rate > 1.0) {
    throw std::invalid_argument("FaultPlan::uniform: rate out of [0,1]");
  }
  FaultPlan plan;
  plan.seed = seed;
  for (FaultClass cls :
       {FaultClass::kCounterWrap, FaultClass::kCounterSaturate,
        FaultClass::kSampleDrop, FaultClass::kSampleDuplicate,
        FaultClass::kPowerStuck, FaultClass::kPowerNoise,
        FaultClass::kMigrationDelay, FaultClass::kMigrationReject}) {
    plan.set(FaultSpec{cls, rate, 1.0, 1});
  }
  plan.set(FaultSpec{FaultClass::kCoreBlackout, rate / 4.0, 1.0, 3});
  return plan;
}

std::string FaultPlan::to_string() const {
  std::string out;
  for (const auto& s : specs_) {
    if (!out.empty()) out += ',';
    out += fault_class_name(s.cls);
    out += ':';
    spec::append_double(out, s.rate);
    out += ':';
    spec::append_double(out, s.magnitude);
    out += ':';
    spec::append_int(out, s.duration_epochs);
  }
  return out;
}

}  // namespace sb::fault
