#include "trace.h"

#include <iomanip>
#include <ostream>
#include <stdexcept>

namespace perfbench {

int SpanRecorder::add(const char* name, Clock::time_point begin,
                      Clock::time_point end, int parent) {
  spans_.push_back({name, since_origin(begin), since_origin(end), parent});
  return static_cast<int>(spans_.size()) - 1;
}

int SpanRecorder::open(const char* name, int parent) {
  const auto now = Clock::now();
  return add(name, now, now, parent);
}

void SpanRecorder::close(int span) {
  spans_.at(static_cast<std::size_t>(span)).end_ns = since_origin(Clock::now());
}

void SpanRecorder::write_chrome_json(
    std::ostream& os, const std::map<std::string, std::string>& metadata) const {
  os << std::fixed << std::setprecision(3);
  os << "{\"displayTimeUnit\":\"ns\",\"otherData\":{";
  for (auto it = metadata.begin(); it != metadata.end(); ++it) {
    os << (it == metadata.begin() ? "" : ",") << '"' << it->first << "\":\""
       << it->second << '"';
  }
  os << "},\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i) os << ",\n";
    // Chrome trace timestamps are microseconds; three decimals keep ns.
    os << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1"
       << ",\"ts\":" << static_cast<double>(s.start_ns) / 1e3
       << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
       << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
  }
  os << "]}\n";
}

std::vector<RootTotals> totals_by_root(const std::vector<Span>& spans) {
  // Spans are recorded parent-first (open() before any child's add()), so a
  // single forward pass resolves every span's root.
  std::vector<int> root_of(spans.size(), -1);
  std::vector<int> root_index(spans.size(), -1);
  std::vector<double> child_s(spans.size(), 0.0);
  std::vector<RootTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int p = spans[i].parent;
    if (p < 0) {
      root_of[i] = static_cast<int>(i);
      root_index[i] = static_cast<int>(out.size());
      out.emplace_back();
      continue;
    }
    if (static_cast<std::size_t>(p) >= i) {
      throw std::logic_error("span recorded before its parent");
    }
    root_of[i] = root_of[static_cast<std::size_t>(p)];
    child_s[static_cast<std::size_t>(p)] +=
        static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-9;
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    RootTotals& t =
        out[static_cast<std::size_t>(root_index[static_cast<std::size_t>(root_of[i])])];
    const double dur = static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-9;
    t.total_s[spans[i].name] += dur;
    t.self_s[spans[i].name] += dur - child_s[i];
  }
  return out;
}

}  // namespace perfbench
