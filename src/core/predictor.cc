#include "core/predictor.h"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/matrix.h"
#include "common/spec.h"

namespace sb::core {

PredictorModel::PredictorModel(int num_types) : num_types_(num_types) {
  if (num_types <= 0) throw std::invalid_argument("PredictorModel: num_types");
  theta_.resize(static_cast<std::size_t>(num_types) *
                static_cast<std::size_t>(num_types));
  power_.resize(static_cast<std::size_t>(num_types));
  for (auto& t : theta_) t.fill(0.0);
  for (auto& p : power_) p = {0.0, 0.0};
}

std::size_t PredictorModel::pair_index(CoreTypeId src, CoreTypeId dst) const {
  if (src < 0 || src >= num_types_ || dst < 0 || dst >= num_types_) {
    throw std::out_of_range("PredictorModel: bad core type");
  }
  return static_cast<std::size_t>(src * num_types_ + dst);
}

const std::array<double, kNumFeatures>& PredictorModel::theta(
    CoreTypeId src, CoreTypeId dst) const {
  return theta_[pair_index(src, dst)];
}

void PredictorModel::set_theta(CoreTypeId src, CoreTypeId dst,
                               const std::array<double, kNumFeatures>& c) {
  theta_[pair_index(src, dst)] = c;
}

std::array<double, 2> PredictorModel::power_coeffs(CoreTypeId t) const {
  if (t < 0 || t >= num_types_) throw std::out_of_range("power_coeffs");
  return power_[static_cast<std::size_t>(t)];
}

void PredictorModel::set_power_coeffs(CoreTypeId t, double alpha1,
                                      double alpha0) {
  if (t < 0 || t >= num_types_) throw std::out_of_range("set_power_coeffs");
  power_[static_cast<std::size_t>(t)] = {alpha1, alpha0};
}

void PredictorModel::set_ipc_bounds(double floor, double ceiling) {
  if (floor <= 0 || ceiling <= floor) {
    throw std::invalid_argument("PredictorModel: bad ipc bounds");
  }
  ipc_floor_ = floor;
  ipc_ceiling_ = ceiling;
}

double PredictorModel::predict_ipc(const ThreadObservation& obs,
                                   CoreTypeId dst, double src_freq_mhz,
                                   double dst_freq_mhz) const {
  if (dst_freq_mhz <= 0 || src_freq_mhz <= 0) {
    throw std::invalid_argument("predict_ipc: bad frequency");
  }
  if (obs.core_type == dst) return std::clamp(obs.ipc, ipc_floor_, ipc_ceiling_);
  const auto x = make_features(obs, src_freq_mhz / dst_freq_mhz);
  const auto& th = theta(obs.core_type, dst);
  double y = 0;
  for (std::size_t i = 0; i < kNumFeatures; ++i) y += th[i] * x[i];
  return std::clamp(y, ipc_floor_, ipc_ceiling_);
}

double PredictorModel::predict_power(CoreTypeId dst, double ipc) const {
  const auto [a1, a0] = power_coeffs(dst);
  return std::max(1e-4, a1 * ipc + a0);
}

void PredictorModel::save(std::ostream& os) const {
  std::string out = "smartbalance-predictor v1\ntypes";
  const auto index = [&out](int v) {
    out += ' ';
    spec::append_int(out, v);
  };
  const auto number = [&out](double v) {
    out += ' ';
    spec::append_double(out, v);
  };
  index(num_types_);
  out += "\nipc_bounds";
  number(ipc_floor_);
  number(ipc_ceiling_);
  for (CoreTypeId s = 0; s < num_types_; ++s) {
    for (CoreTypeId d = 0; d < num_types_; ++d) {
      if (s == d) continue;
      out += "\ntheta";
      index(s);
      index(d);
      for (double v : theta(s, d)) number(v);
    }
  }
  for (CoreTypeId t = 0; t < num_types_; ++t) {
    const auto [a1, a0] = power_coeffs(t);
    out += "\npower";
    index(t);
    number(a1);
    number(a0);
  }
  os << out << '\n';
}

void PredictorModel::save_to_file(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("PredictorModel: cannot write " + path);
  save(os);
}

PredictorModel PredictorModel::load(std::istream& is) {
  int line_no = 0;
  auto fail = [&](const std::string& why) {
    throw std::runtime_error("PredictorModel::load: line " +
                             std::to_string(line_no) + ": " + why);
  };
  // The next non-empty line's space-separated fields; none at end of input.
  std::string line;
  auto next = [&] {
    while (std::getline(is, line)) {
      ++line_no;
      if (!line.empty()) return spec::split(line, ' ');
    }
    return std::vector<std::string>{};
  };
  auto number = [&](const std::string& field) {
    const auto v = spec::parse_double(field);
    if (!v) fail("bad number '" + field + "'");
    return *v;
  };

  if (next() != std::vector<std::string>{"smartbalance-predictor", "v1"}) {
    fail("bad header");
  }
  auto f = next();
  const auto types = f.size() == 2 && f[0] == "types"
                         ? spec::parse_int(f[1], 1, kMaxCores)
                         : std::nullopt;
  if (!types) {
    fail("bad type count (want types <n>, n in [1, " +
         std::to_string(kMaxCores) + "])");
  }
  PredictorModel m(static_cast<int>(*types));
  auto index = [&](const std::string& field) {
    const auto v = spec::parse_int(field, 0, m.num_types_ - 1);
    if (!v) fail("core type '" + field + "' out of range");
    return static_cast<CoreTypeId>(*v);
  };
  f = next();
  if (f.size() != 3 || f[0] != "ipc_bounds") fail("bad ipc bounds");
  m.set_ipc_bounds(number(f[1]), number(f[2]));
  for (f = next(); !f.empty(); f = next()) {
    if (f[0] == "theta") {
      if (f.size() != 3 + kNumFeatures) {
        fail("theta row wants 2 core types and " +
             std::to_string(kNumFeatures) + " coefficients");
      }
      const CoreTypeId s = index(f[1]);
      const CoreTypeId d = index(f[2]);
      if (s == d) fail("theta row maps a core type onto itself");
      std::array<double, kNumFeatures> th{};
      for (std::size_t i = 0; i < kNumFeatures; ++i) th[i] = number(f[3 + i]);
      m.set_theta(s, d, th);
    } else if (f[0] == "power") {
      if (f.size() != 4) fail("power row wants a core type and 2 coefficients");
      m.set_power_coeffs(index(f[1]), number(f[2]), number(f[3]));
    } else {
      fail("unknown record: " + f[0]);
    }
  }
  return m;
}

PredictorModel PredictorModel::load_from_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("PredictorModel: cannot read " + path);
  return load(is);
}

bool PredictorModel::operator==(const PredictorModel& o) const {
  return num_types_ == o.num_types_ && theta_ == o.theta_ &&
         power_ == o.power_ && ipc_floor_ == o.ipc_floor_ &&
         ipc_ceiling_ == o.ipc_ceiling_;
}

void PredictorModel::print(std::ostream& os,
                           const arch::Platform& platform) const {
  os << std::left << std::setw(18) << "Predictor IPC";
  for (const auto& n : feature_names()) os << std::setw(10) << n;
  os << '\n';
  for (CoreTypeId s = 0; s < num_types_; ++s) {
    for (CoreTypeId d = 0; d < num_types_; ++d) {
      if (s == d) continue;
      os << std::setw(18)
         << (platform.params_of_type(s).name + "->" +
             platform.params_of_type(d).name);
      const auto& th = theta(s, d);
      os << std::fixed << std::setprecision(3);
      for (double v : th) os << std::setw(10) << v;
      os.unsetf(std::ios::fixed);
      os << '\n';
    }
  }
}

}  // namespace sb::core
