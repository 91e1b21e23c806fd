#include "obs/trace.h"

#include <algorithm>
#include <ostream>

#include "common/spec.h"

namespace sb::obs {

EpochTracer::EpochTracer(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)) {
  ring_.reserve(std::min<std::size_t>(capacity_, 1 << 12));
}

std::uint32_t EpochTracer::intern(std::string_view name) {
  const auto it = name_ids_.find(name);
  if (it != name_ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(name);
  name_ids_.emplace(std::string(name), id);
  return id;
}

void EpochTracer::push(TraceEvent ev, TraceArgs args) {
  for (const auto& [key, value] : args) {
    if (ev.nargs >= ev.args.size()) break;
    ev.args[ev.nargs++] = TraceArg{intern(key), value};
  }
  ev.seq = seq_;
  if (ring_.size() < capacity_) {
    ring_.push_back(ev);
  } else {
    // Overwrite the oldest event: record k lives at slot k % capacity, so
    // the slot of seq_ - capacity is exactly seq_ % capacity.
    ring_[static_cast<std::size_t>(seq_ % capacity_)] = ev;
    ++dropped_;
  }
  ++seq_;
}

void EpochTracer::span(std::string_view name, std::uint64_t ts_ns,
                       std::uint64_t dur_ns, std::uint64_t epoch,
                       TraceArgs args) {
  TraceEvent ev;
  ev.name = intern(name);
  ev.phase = 'X';
  ev.ts_ns = ts_ns;
  ev.dur_ns = dur_ns;
  ev.epoch = epoch;
  push(ev, args);
}

void EpochTracer::instant(std::string_view name, std::uint64_t ts_ns,
                          std::uint64_t epoch, TraceArgs args) {
  TraceEvent ev;
  ev.name = intern(name);
  ev.phase = 'i';
  ev.ts_ns = ts_ns;
  ev.dur_ns = 0;
  ev.epoch = epoch;
  push(ev, args);
}

EpochTracer::Snapshot EpochTracer::snapshot() const {
  Snapshot snap;
  snap.names = names_;
  snap.dropped = dropped_;
  snap.events.reserve(ring_.size());
  if (dropped_ == 0) {
    snap.events = ring_;
  } else {
    // The ring has wrapped: oldest surviving event sits at seq_ % capacity.
    const auto start = static_cast<std::size_t>(seq_ % capacity_);
    snap.events.insert(snap.events.end(), ring_.begin() + start, ring_.end());
    snap.events.insert(snap.events.end(), ring_.begin(), ring_.begin() + start);
  }
  return snap;
}

namespace {

/// Chrome trace timestamps are microseconds; keep nanosecond precision.
void json_us(std::ostream& os, std::uint64_t ns) {
  os << ns / 1000 << '.' << static_cast<char>('0' + (ns % 1000) / 100)
     << static_cast<char>('0' + (ns % 100) / 10)
     << static_cast<char>('0' + ns % 10);
}

void write_event(std::ostream& os, const RunObs& run, const TraceEvent& ev) {
  os << "{\"name\":";
  spec::json_string(os, run.trace.name_of(ev.name));
  os << ",\"cat\":\"epoch\",\"ph\":\"" << ev.phase << "\",\"ts\":";
  json_us(os, ev.ts_ns);
  if (ev.phase == 'X') {
    os << ",\"dur\":";
    json_us(os, ev.dur_ns);
  }
  if (ev.phase == 'i') os << ",\"s\":\"t\"";
  os << ",\"pid\":" << run.run << ",\"tid\":0,\"args\":{\"epoch\":"
     << ev.epoch;
  for (std::uint8_t a = 0; a < ev.nargs; ++a) {
    os << ',';
    spec::json_string(os, run.trace.name_of(ev.args[a].key));
    os << ':';
    spec::json_number(os, ev.args[a].value);
  }
  os << "}}";
}

}  // namespace

void write_chrome_trace(std::ostream& os,
                        const std::vector<const RunObs*>& runs) {
  // Deterministic merge: order runs by their submission index, then events
  // by (run, epoch, seq). Per-run snapshots are already seq-sorted, but a
  // stable explicit sort makes the contract independent of that detail.
  std::vector<const RunObs*> ordered;
  ordered.reserve(runs.size());
  for (const RunObs* r : runs) {
    if (r != nullptr) ordered.push_back(r);
  }
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const RunObs* a, const RunObs* b) {
                     return a->run != b->run ? a->run < b->run
                                             : a->label < b->label;
                   });

  os << "{\"traceEvents\":[";
  bool first = true;
  std::uint64_t total_events = 0;
  std::uint64_t total_dropped = 0;
  for (const RunObs* run : ordered) {
    if (!first) os << ',';
    first = false;
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":"
       << run->run << ",\"tid\":0,\"args\":{\"name\":";
    spec::json_string(os, run->label.empty() ? "run" : run->label);
    os << "}}";
    std::vector<const TraceEvent*> events;
    events.reserve(run->trace.events.size());
    for (const TraceEvent& ev : run->trace.events) events.push_back(&ev);
    std::stable_sort(events.begin(), events.end(),
                     [](const TraceEvent* a, const TraceEvent* b) {
                       return a->epoch != b->epoch ? a->epoch < b->epoch
                                                   : a->seq < b->seq;
                     });
    for (const TraceEvent* ev : events) {
      os << ',';
      write_event(os, *run, *ev);
      ++total_events;
    }
    total_dropped += run->trace.dropped;
  }
  os << "],\"displayTimeUnit\":\"ms\",\"smartbalance\":{\"runs\":"
     << ordered.size() << ",\"events\":" << total_events
     << ",\"dropped_events\":" << total_dropped << "}}\n";
}

MetricsRegistry merge_metrics(const std::vector<const RunObs*>& runs) {
  std::vector<const RunObs*> ordered;
  ordered.reserve(runs.size());
  for (const RunObs* r : runs) {
    if (r != nullptr) ordered.push_back(r);
  }
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const RunObs* a, const RunObs* b) {
                     return a->run < b->run;
                   });
  MetricsRegistry merged;
  for (const RunObs* run : ordered) merged.merge(run->metrics, run->run);
  return merged;
}

}  // namespace sb::obs
