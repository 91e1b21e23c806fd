// Exports: the one place that decides which collectors a set of export
// files needs and how those files are written.
//
// sbsim (single-node and --fleet), the fleet harnesses and the sweep
// harnesses all end the same way: a set of per-run RunObs snapshots and a
// few output paths. An Exports value holds the paths, gives the ObsConfig
// that switches on exactly the collectors they read, and writes every
// requested file from the run set. Each export sees only the runs that
// recorded it; the format writers merge those in stamped run order, so a
// file is a deterministic function of the runs whatever order they come in.
//
//   export      format                         read by
//   trace       Chrome trace-event JSON        Perfetto, tools/check_trace.py
//   metrics     merged registry JSON           any JSON reader
//   audit       #sb-audit packed CSV           tools/sbaudit
//   timeseries  #sb-tsdb CSV (JSON for .json)  tools/sbtop, check_timeseries.py
//   prom        Prometheus text exposition     Prometheus scrapers
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "obs/sink.h"

namespace sb::obs {

struct Exports {
  std::string trace;
  std::string metrics;
  std::string audit;
  std::string timeseries;
  std::string prom;

  /// An empty trace path takes the SB_TRACE environment variable.
  void trace_from_env();

  /// The collectors these exports read: the tracer for trace, the metrics
  /// registry for metrics and prom, the audit recorder for audit and the
  /// sampler for timeseries. Nothing else is switched on.
  ObsConfig config() const;

  /// Writes every export that has a path and logs "<export> written to
  /// <path>" for each on `log`. Null runs are skipped. Throws
  /// std::runtime_error naming the path when a file cannot be written.
  void write(const std::vector<const RunObs*>& runs, std::ostream& log) const;
};

/// The merged metrics registry of the runs that recorded metrics, as one
/// line of JSON.
void write_metrics(std::ostream& os, const std::vector<const RunObs*>& runs);

}  // namespace sb::obs
