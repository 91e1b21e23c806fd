// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded from the benchmark's own code around the calls it makes
// into each library layer; nothing inside the library is instrumented. They
// stay in memory while the run measures and are written once at exit as
// Chrome trace-event JSON.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;  // relative to the recorder's origin
  std::int64_t end_ns = 0;
  int parent = -1;  // index of the enclosing span, -1 for a root
};

class SpanRecorder {
 public:
  SpanRecorder() : origin_(Clock::now()) {}

  /// Records a finished span; returns its index. `name` must outlive the
  /// recorder (the benchmark passes string literals).
  int add(const char* name, Clock::time_point begin, Clock::time_point end,
          int parent);
  /// Opens a span that closes with close(); children may name it as parent
  /// in between.
  int open(const char* name, int parent);
  void close(int span);

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes every span as a complete ("X") trace event; args carry the
  /// span's id and its parent's id. `metadata` becomes "otherData".
  void write_chrome_json(
      std::ostream& os,
      const std::map<std::string, std::string>& metadata = {}) const;

 private:
  std::int64_t since_origin(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Per-root totals derived from a span tree: for every root span (one
/// benchmark operation) and every span name below it, the summed duration
/// and the summed self time (duration minus the time its children cover).
struct RootTotals {
  std::map<std::string, double> total_s;
  std::map<std::string, double> self_s;
};
std::vector<RootTotals> totals_by_root(const std::vector<Span>& spans);

}  // namespace perfbench
