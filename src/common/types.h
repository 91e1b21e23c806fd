// Fundamental identifier and time types shared by every SmartBalance module.
//
// The simulator models wall-clock time as signed 64-bit nanoseconds, which
// gives ~292 years of range — far beyond any simulated experiment — while
// keeping arithmetic on durations trivially overflow-safe.
#pragma once

#include <cstdint>
#include <limits>

namespace sb {

/// Simulated time / duration in nanoseconds.
using TimeNs = std::int64_t;

/// Identifies a physical core on the platform: dense indices [0, n_cores).
using CoreId = std::int32_t;

/// Identifies a schedulable task entity (thread or single-threaded process,
/// both treated uniformly as in the Linux scheduling subsystem).
using ThreadId = std::int32_t;

/// Identifies a core *type* (the paper's r in R = {r_1..r_q}).
using CoreTypeId = std::int32_t;

inline constexpr CoreId kInvalidCore = -1;
inline constexpr ThreadId kInvalidThread = -1;

/// Convenience duration constructors.
constexpr TimeNs nanoseconds(std::int64_t v) { return v; }
constexpr TimeNs microseconds(std::int64_t v) { return v * 1'000; }
constexpr TimeNs milliseconds(std::int64_t v) { return v * 1'000'000; }
constexpr TimeNs seconds(std::int64_t v) { return v * 1'000'000'000; }

/// Converts a nanosecond duration to (double) seconds.
constexpr double to_seconds(TimeNs t) { return static_cast<double>(t) * 1e-9; }

/// Converts a nanosecond duration to (double) milliseconds.
constexpr double to_millis(TimeNs t) { return static_cast<double>(t) * 1e-6; }

/// Sentinel "never" timestamp used by event scheduling.
inline constexpr TimeNs kTimeNever = std::numeric_limits<TimeNs>::max();

/// Upper bound on platform size (the sharded scaling study reaches 1024
/// cores; affinity masks are sized exactly for that ceiling).
inline constexpr int kMaxCores = 1024;

/// Longest simulated window the command-line tools accept (about 11.6
/// simulated days); anything beyond it is a typo, not an experiment.
inline constexpr std::int64_t kMaxDurationMs = 1'000'000'000;

}  // namespace sb
