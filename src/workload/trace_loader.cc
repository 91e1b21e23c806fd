#include "workload/trace_loader.h"

#include <fstream>
#include <stdexcept>
#include <vector>

#include "common/spec.h"

namespace sb::workload {
namespace {

constexpr std::size_t kColumns = 13;

[[noreturn]] void fail(std::size_t line, const std::string& why) {
  throw std::runtime_error("thread trace line " + std::to_string(line) + ": " +
                           why);
}

}  // namespace

const std::string& trace_csv_header() {
  static const std::string kHeader =
      "instructions,ilp,mem_share,branch_share,mispredict_rate,"
      "footprint_i_kb,footprint_d_kb,locality_alpha,mr_l1i_ref,mr_l1d_ref,"
      "l2_miss_ratio,mlp,activity";
  return kHeader;
}

ThreadBehavior load_thread_trace(std::istream& is, const std::string& name) {
  std::string line;
  if (!std::getline(is, line)) fail(1, "empty input");
  if (line != trace_csv_header()) fail(1, "unexpected header");

  ThreadBehavior tb;
  tb.name = name;
  std::size_t lineno = 1;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty()) continue;
    const std::vector<std::string> cells = spec::split(line, ',');
    if (cells.size() != kColumns) {
      fail(lineno, "expected " + std::to_string(kColumns) + " columns, got " +
                       std::to_string(cells.size()));
    }
    std::vector<double> v;
    for (const std::string& cell : cells) {
      const auto d = spec::parse_double(cell);
      if (!d) fail(lineno, "not a finite number: '" + cell + "'");
      v.push_back(*d);
    }
    Phase ph;
    // Range-check before the float→integer cast: a negative or huge
    // instruction count would be undefined behaviour in the static_cast,
    // not just a bad value.
    if (v[0] < 0 || v[0] >= 1e18) {
      fail(lineno, "instruction count out of [0, 1e18)");
    }
    ph.instructions = static_cast<std::uint64_t>(v[0]);
    WorkloadProfile& p = ph.profile;
    p.name = name + ".phase" + std::to_string(tb.phases.size());
    p.ilp = v[1];
    p.mem_share = v[2];
    p.branch_share = v[3];
    p.mispredict_rate = v[4];
    p.footprint_i_kb = v[5];
    p.footprint_d_kb = v[6];
    p.locality_alpha = v[7];
    p.mr_l1i_ref = v[8];
    p.mr_l1d_ref = v[9];
    p.l2_miss_ratio = v[10];
    p.mlp = v[11];
    p.activity = v[12];
    try {
      p.validate();
    } catch (const std::invalid_argument& e) {
      fail(lineno, e.what());
    }
    if (ph.instructions == 0) fail(lineno, "phase with zero instructions");
    tb.phases.push_back(std::move(ph));
  }
  if (tb.phases.empty()) fail(lineno, "trace contains no phases");
  tb.validate();
  return tb;
}

ThreadBehavior load_thread_trace_file(const std::string& path,
                                      const std::string& name) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot read thread trace: " + path);
  return load_thread_trace(is, name);
}

void save_thread_trace(std::ostream& os, const ThreadBehavior& behavior) {
  os << trace_csv_header() << "\n";
  std::string line;
  for (const auto& ph : behavior.phases) {
    const auto& p = ph.profile;
    line.clear();
    spec::append_u64(line, ph.instructions);
    for (const double d :
         {p.ilp, p.mem_share, p.branch_share, p.mispredict_rate,
          p.footprint_i_kb, p.footprint_d_kb, p.locality_alpha, p.mr_l1i_ref,
          p.mr_l1d_ref, p.l2_miss_ratio, p.mlp, p.activity}) {
      line += ',';
      spec::append_double(line, d);
    }
    os << line << '\n';
  }
}

void save_thread_trace_file(const std::string& path,
                            const ThreadBehavior& behavior) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write thread trace: " + path);
  save_thread_trace(os, behavior);
}

}  // namespace sb::workload
