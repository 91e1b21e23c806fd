#include "obs/exports.h"

#include <cstdlib>
#include <fstream>
#include <ostream>
#include <stdexcept>

#include "obs/audit_writer.h"
#include "obs/timeseries.h"
#include "obs/trace.h"

namespace sb::obs {

namespace {

using Runs = std::vector<const RunObs*>;

/// The non-null runs with `flag` set, in the order given.
Runs recorded(const Runs& runs, bool RunObs::*flag) {
  Runs out;
  for (const RunObs* r : runs) {
    if (r != nullptr && r->*flag) out.push_back(r);
  }
  return out;
}

/// Writes one export to `path` (a no-op for an empty path).
template <typename Write>
void write_file(const std::string& path, const char* what, std::ostream& log,
                Write write) {
  if (path.empty()) return;
  std::ofstream os(path, std::ios::binary);
  if (os) write(os);
  if (!os.flush()) {
    throw std::runtime_error(std::string("cannot write ") + what + " to " +
                             path);
  }
  log << what << " written to " << path << '\n';
}

}  // namespace

void Exports::trace_from_env() {
  if (!trace.empty()) return;
  if (const char* env = std::getenv("SB_TRACE")) trace = env;
}

ObsConfig Exports::config() const {
  ObsConfig cfg;
  cfg.trace = !trace.empty();
  cfg.metrics = !metrics.empty() || !prom.empty();
  cfg.audit = !audit.empty();
  cfg.timeseries.enabled = !timeseries.empty();
  return cfg;
}

void write_metrics(std::ostream& os, const Runs& runs) {
  merge_metrics(recorded(runs, &RunObs::metrics_enabled)).write_json(os);
  os << '\n';
}

void Exports::write(const Runs& runs, std::ostream& log) const {
  write_file(trace, "trace", log, [&](std::ostream& os) {
    write_chrome_trace(os, recorded(runs, &RunObs::trace_enabled));
  });
  write_file(metrics, "metrics", log,
             [&](std::ostream& os) { write_metrics(os, runs); });
  write_file(audit, "audit export", log, [&](std::ostream& os) {
    write_audit(os, recorded(runs, &RunObs::audit_enabled));
  });
  write_file(timeseries, "timeseries", log, [&](std::ostream& os) {
    const Runs sampled = recorded(runs, &RunObs::timeseries_enabled);
    if (timeseries.ends_with(".json")) {
      write_timeseries_json(os, sampled);
    } else {
      write_timeseries(os, sampled);
    }
  });
  write_file(prom, "prometheus snapshot", log, [&](std::ostream& os) {
    write_prometheus(os, recorded(runs, &RunObs::metrics_enabled));
  });
}

}  // namespace sb::obs
