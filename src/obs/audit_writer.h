// Columnar export for AuditSnapshot ledgers: packed CSV, schema-versioned,
// containing only sim-time fields — no host clocks, no pointers, no
// environment — so the bytes are a deterministic function of the simulated
// runs (bit-identical across --jobs worker counts, golden-testable).
//
// Layout (kSchemaVersion = 2 — v2 appended the pre-adaptation residual
// columns raw_gips_err/raw_power_err to thread records and the signed
// residual EWMAs to state records):
//   #sb-audit v2
//   #columns thread <comma-separated field names>
//   #columns epoch ...
//   #columns migration ...
//   #columns drift ...
//   #columns state ...
//   #run <index> <label>           one block per run, ordered by run index
//   epoch,...                      data rows, first field = record kind
//   thread,...
//   migration,...
//   drift,...
//   state,...
//   #counters <index> joined=.. unjoined=.. predictions=.. dropped=..
//   #summary runs=<n>
//
// Doubles are rendered by the shared shortest round-trip formatter
// (common/spec.h): locale-independent, and each reads back to the same bits.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace sb::obs {

inline constexpr int kAuditSchemaVersion = 2;

/// Column lists, kept in one place so the writer, the schema JSON and the
/// tests cannot drift apart silently.
const char* audit_thread_columns();
const char* audit_epoch_columns();
const char* audit_migration_columns();
const char* audit_drift_columns();
const char* audit_state_columns();

/// Merges per-run audit snapshots into one export. Runs are ordered by
/// their stamped run index (the spec's submission order), so the output is
/// independent of the order runs are passed in and of the --jobs worker
/// count that produced them. Runs without audit enabled are skipped.
void write_audit(std::ostream& os, const std::vector<const RunObs*>& runs);

}  // namespace sb::obs
