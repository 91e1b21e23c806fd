#!/usr/bin/env python3
"""Line-coverage gate over a gcov-instrumented build (no gcovr needed).

Walks a build tree for .gcda files (produced by running the test suite in
a build configured with --coverage), shells out to `gcov --json-format
--stdout` for each, and aggregates per-source-line execution counts --
taking the max across translation units, so a header exercised by any TU
counts as covered.

Gates (any failing exits 1):
  --min-obs PCT     minimum line coverage for src/obs/ (default 90)
  --min-adapt PCT   minimum line coverage for src/core/adapt.* (default 0)
  --min-shard PCT   minimum line coverage for src/core/shard.* (default 0)
  --min-fleet PCT   minimum line coverage for src/fleet/ (default 0)
  --min-replay PCT  minimum line coverage for src/workload/sched_replay.*
                    (default 0)
  --min-tsdb PCT    minimum line coverage for the telemetry plane
                    (src/obs/timeseries.* + src/obs/slo.*, default 0)
  --min-spec PCT    minimum line coverage for the number codec
                    (src/common/spec.*, default 0)
  --min-total PCT   minimum overall line coverage for src/ (default 0)

--json FILE writes the per-file numbers for the CI artifact.
--step-summary FILE appends a markdown summary table (pass $GITHUB_STEP_SUMMARY
in CI to surface the area percentages on the run page).

Usage:
    check_coverage.py --build-dir build-cov [--source-root .]
                      [--min-obs 90] [--min-total 80] [--json coverage.json]
                      [--step-summary "$GITHUB_STEP_SUMMARY"]
"""

import argparse
import json
import os
import subprocess
import sys

# Gated areas: (name, path prefix — or tuple of prefixes — relative to the
# source root). A prefix ending in a separator selects a directory subtree;
# otherwise it is a filename-prefix match (e.g. src/core/adapt. matches
# adapt.h/.cc). Adding an area here is the whole change: the CLI flag, the
# report line, the JSON key and the step-summary row all derive from this
# table.
AREAS = [
    ("obs", os.path.join("src", "obs") + os.sep),
    ("adapt", os.path.join("src", "core", "adapt.")),
    ("shard", os.path.join("src", "core", "shard.")),
    ("fleet", os.path.join("src", "fleet") + os.sep),
    ("replay", os.path.join("src", "workload", "sched_replay.")),
    # The telemetry plane (timeseries recorder + SLO engine) spans two file
    # stems inside src/obs/ and carries its own, stricter bar.
    ("tsdb", (os.path.join("src", "obs", "timeseries."),
              os.path.join("src", "obs", "slo."))),
    # The one number codec and field splitter every boundary goes through.
    ("spec", os.path.join("src", "common", "spec.")),
]
DEFAULT_MINIMUMS = {"obs": 90.0}


def gcov_reports(build_dir):
    """Yields parsed gcov JSON documents for every .gcda under build_dir."""
    gcda = []
    for root, _dirs, files in os.walk(build_dir):
        gcda += [os.path.join(root, f) for f in files if f.endswith(".gcda")]
    if not gcda:
        sys.exit(f"no .gcda files under {build_dir} -- did the tests run in "
                 "a --coverage build?")
    for path in sorted(gcda):
        # Run gcov inside the .gcda's own directory (where the matching
        # .gcno notes file lives) and hand it the bare filename.
        proc = subprocess.run(
            ["gcov", "--json-format", "--stdout", os.path.basename(path)],
            capture_output=True, text=True,
            cwd=os.path.dirname(os.path.abspath(path)))
        if proc.returncode != 0:
            print(f"warning: gcov failed on {path}: {proc.stderr.strip()}",
                  file=sys.stderr)
            continue
        # One JSON document per input file; tolerate trailing noise lines.
        for line in proc.stdout.splitlines():
            line = line.strip()
            if not line.startswith("{"):
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError:
                continue


def aggregate(build_dir, source_root):
    """Returns {rel_source_path: {line_number: max_count}}."""
    source_root = os.path.realpath(source_root)
    lines_by_file = {}
    for doc in gcov_reports(build_dir):
        for entry in doc.get("files", []):
            path = os.path.realpath(
                os.path.join(doc.get("current_working_directory", "."),
                             entry["file"]))
            if not path.startswith(source_root + os.sep):
                continue
            rel = os.path.relpath(path, source_root)
            counts = lines_by_file.setdefault(rel, {})
            for ln in entry.get("lines", []):
                n = ln["line_number"]
                counts[n] = max(counts.get(n, 0), ln["count"])
    return lines_by_file


def coverage_of(files):
    covered = sum(1 for c in files.values() for n in c.values() if n > 0)
    total = sum(len(c) for c in files.values())
    return covered, total, (100.0 * covered / total if total else 100.0)


def area_label(name, prefix):
    if name == "total":
        return "src/ overall"
    parts = prefix if isinstance(prefix, tuple) else (prefix,)
    return ", ".join(p.replace(os.sep, "/")
                     + ("*" if not p.endswith(os.sep) else "")
                     for p in parts)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", required=True)
    parser.add_argument("--source-root", default=".")
    for name, _prefix in AREAS:
        parser.add_argument(f"--min-{name}", type=float,
                            default=DEFAULT_MINIMUMS.get(name, 0.0),
                            help=f"min line coverage %% for the {name} area "
                                 f"(default {DEFAULT_MINIMUMS.get(name, 0.0)})")
    parser.add_argument("--min-total", type=float, default=0.0,
                        help="min line coverage %% for src/ (default 0)")
    parser.add_argument("--json", help="write per-file numbers to this file")
    parser.add_argument("--step-summary",
                        help="append a markdown summary table to this file")
    args = parser.parse_args()

    lines = aggregate(args.build_dir, args.source_root)
    src = {f: c for f, c in lines.items() if f.startswith("src" + os.sep)}

    per_file = {}
    for f in sorted(src):
        cov, tot, pct = coverage_of({f: src[f]})
        per_file[f] = {"covered": cov, "lines": tot, "pct": round(pct, 2)}
        print(f"  {pct:6.2f}%  {cov:5d}/{tot:<5d}  {f}")

    # name -> (minimum, label, covered, total, pct); src/ overall rides along
    # as the final pseudo-area.
    results = {}
    for name, prefix in AREAS + [("total", "src" + os.sep)]:
        files = {f: c for f, c in src.items() if f.startswith(prefix)}
        minimum = getattr(args, f"min_{name}")
        cov, tot, pct = coverage_of(files)
        results[name] = (minimum, area_label(name, prefix), cov, tot, pct)

    print()
    for _name, (_minimum, label, cov, tot, pct) in results.items():
        print(f"{label}: {pct:.2f}% ({cov}/{tot} lines)")

    if args.json:
        doc = {"files": per_file}
        for name, (_minimum, _label, _cov, _tot, pct) in results.items():
            doc[f"src_{name}_pct"] = round(pct, 2)
        with open(args.json, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")

    failures = []
    for name, (minimum, label, _cov, tot, pct) in results.items():
        if minimum > 0 and tot == 0:
            failures.append(f"no coverage data for {label} at all")
        if pct < minimum:
            failures.append(f"{label} coverage {pct:.2f}% < "
                            f"required {minimum:.2f}%")

    if args.step_summary:
        with open(args.step_summary, "a") as f:
            f.write("### Coverage gate\n\n")
            f.write("| Area | Coverage | Lines | Required | Status |\n")
            f.write("|---|---|---|---|---|\n")
            for _name, (minimum, label, cov, tot, pct) in results.items():
                required = f"{minimum:.2f}%" if minimum > 0 else "—"
                status = "✅" if (pct >= minimum and (minimum == 0 or tot > 0)) \
                    else "❌"
                f.write(f"| `{label}` | {pct:.2f}% | {cov}/{tot} "
                        f"| {required} | {status} |\n")
            f.write("\n")

    if failures:
        print(f"\nCOVERAGE GATE FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("\ncoverage gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
