#!/usr/bin/env python3
"""Compare two directories of SKL_BENCH_JSON bench results and gate on
perf regressions.

Usage:
    bench_compare.py BASELINE_DIR CURRENT_DIR [--threshold 0.25]
                     [--summary FILE]

Each directory holds one JSON file per bench in the JsonReporter shape
({"bench": ..., "results": [{"name", "value", "unit"}, ...]}); CI
downloads BASELINE_DIR from the previous main run's bench-results
artifact and fills CURRENT_DIR from this run (docs/BENCHMARKS.md).

Every metric present on both sides is reported in a markdown delta table
(written to --summary for $GITHUB_STEP_SUMMARY, and always to stdout).
Only the *gated* keys fail the job: snapshot_load_*, spec_delta_*,
query_cache_hit_ns (BFS cache hit), qps_shards16_t2 (two readers on a
16-shard registry), net_connscale_*_p99_latency, repl_lag_p50/p99 and
crc32_mb_per_s (checksum speed over a snapshot file) — the
snapshot-restore, spec-update-relabel, serving-latency, multi-reader
throughput, connection-scale tail-latency, replication-lag and checksum
surfaces this repo promises not to regress. A gated
key regresses when it worsens by more than --threshold (default 25%);
"worsens" respects the unit's direction — UNIT_DIRECTIONS pins it
explicitly for every unit a gated key uses, and time-like units
(ms, ns/query) otherwise regress upward, rate-like units (MB/s, runs/s)
downward. A gated key that exists in the baseline but vanished from the
current run also fails (a silently dropped metric must not pass the
gate it used to guard) — unless it is listed in RETIRED_KEYS, the
metrics whose measured code path was deliberately deleted; those are
reported as retired.

Artifact compatibility: documents written by JsonReporter carry
bench_schema_version (bench/bench_common.h). A file whose version is
newer or older than SCHEMA_VERSION exits 2 — mis-reading a stale
baseline is worse than failing loudly. Files without the field predate
the versioning and are accepted as version-1 shaped.

Exit codes: 0 ok, 1 regression, 2 usage/IO error — matching the repo's
CLI misuse convention.
"""

import argparse
import glob
import json
import os
import sys

#: The JsonReporter artifact format this comparator understands
#: (bench/bench_common.h kSchemaVersion).
SCHEMA_VERSION = 1

GATED_PREFIXES = ("snapshot_load_", "spec_delta_")
#: qps_shards16_t2 is the widest multi-reader key CI emits (it runs
#: bench_query_cache with SKL_BENCH_CACHE_MAX_THREADS=2). crc32_mb_per_s
#: catches a build that falls back to the table CRC kernel: at CI's
#: snapshot size the snapshot_load_* keys are too small to show it.
GATED_EXACT = ("query_cache_hit_ns", "qps_shards16_t2", "repl_lag_p50",
               "repl_lag_p99", "crc32_mb_per_s")
#: (prefix, suffix) pairs: gates the connection-scale p99 keys
#: (net_connscale_256_p99_latency, ..._1024_..., ...) without gating the
#: qps/churn keys that share the prefix.
GATED_AFFIXES = (("net_connscale_", "_p99_latency"),)
#: Gated metrics whose code path was deleted on purpose. A baseline that
#: still carries one reports it as retired instead of failing the gate.
#: snapshot_load_v1_ms timed the version-1 snapshot loader, removed when
#: the snapshot format kept only its current version.
RETIRED_KEYS = ("snapshot_load_v1_ms",)

#: Explicit direction for every unit a gated key uses (True = higher is
#: better). The heuristic in higher_is_better covers the informational
#: rest; gated keys must not depend on a substring guess.
UNIT_DIRECTIONS = {
    "ms": False,
    "us": False,
    "ns/query": False,
    "queries/s": True,
    "runs/s": True,
    "MB/s": True,
}


def is_gated(key):
    name = key.rsplit("/", 1)[-1]
    if name.startswith(GATED_PREFIXES) or name in GATED_EXACT:
        return True
    return any(name.startswith(prefix) and name.endswith(suffix)
               for prefix, suffix in GATED_AFFIXES)


def higher_is_better(unit):
    """Rate-like units improve upward; everything else (ms, ns, MB, x)
    is treated as lower-is-better, which is correct for every gated key
    and harmless for the informational rows."""
    if unit in UNIT_DIRECTIONS:
        return UNIT_DIRECTIONS[unit]
    return "/s" in unit or "per_sec" in unit


def load_dir(path):
    """{ "<bench>/<metric>": (value, unit) } over every *.json in path."""
    metrics = {}
    for file in sorted(glob.glob(os.path.join(path, "*.json"))):
        try:
            with open(file, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            print(f"error: cannot read {file}: {err}", file=sys.stderr)
            sys.exit(2)
        version = doc.get("bench_schema_version")
        if version is not None and version != SCHEMA_VERSION:
            print(f"error: {file}: bench_schema_version {version} is not "
                  f"the supported {SCHEMA_VERSION}; refusing to compare "
                  "incompatible artifacts", file=sys.stderr)
            sys.exit(2)
        bench = doc.get("bench", os.path.basename(file))
        for entry in doc.get("results", []):
            try:
                key = f"{bench}/{entry['name']}"
                metrics[key] = (float(entry["value"]), str(entry.get("unit", "")))
            except (KeyError, TypeError, ValueError) as err:
                print(f"error: malformed entry in {file}: {err}", file=sys.stderr)
                sys.exit(2)
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="directory of baseline bench JSON")
    parser.add_argument("current", help="directory of current bench JSON")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="gated regression threshold as a fraction "
                             "(default 0.25 = 25%%)")
    parser.add_argument("--summary", default=None,
                        help="also write the markdown table to this file "
                             "(append; for $GITHUB_STEP_SUMMARY)")
    args = parser.parse_args()
    for path in (args.baseline, args.current):
        if not os.path.isdir(path):
            print(f"error: {path} is not a directory", file=sys.stderr)
            return 2

    baseline = load_dir(args.baseline)
    current = load_dir(args.current)
    if not baseline:
        # First run on a branch / expired artifact: nothing to gate against.
        print(f"no baseline metrics under {args.baseline}; skipping the gate")
        return 0
    if not current:
        print(f"error: no current metrics under {args.current}",
              file=sys.stderr)
        return 2

    lines = [
        f"### Bench comparison (gate: ±{args.threshold:.0%} on "
        "`snapshot_load_*`, `spec_delta_*`, `query_cache_hit_ns`, "
        "`qps_shards16_t2`, `net_connscale_*_p99_latency`, "
        "`repl_lag_p50/p99`, `crc32_mb_per_s`)",
        "",
        "| metric | baseline | current | delta | gate |",
        "|---|---:|---:|---:|---|",
    ]
    regressions = []
    for key in sorted(set(baseline) | set(current)):
        gated = is_gated(key)
        if key not in current:
            if key.rsplit("/", 1)[-1] in RETIRED_KEYS:
                gated, status = False, "retired"
            else:
                status = "MISSING" if gated else "removed"
            lines.append(f"| `{key}` | {baseline[key][0]:.4g} {baseline[key][1]}"
                         f" | — | — | {status} |")
            if gated:
                regressions.append(f"{key}: gated metric missing from the "
                                   "current run")
            continue
        if key not in baseline:
            value, unit = current[key]
            lines.append(f"| `{key}` | — | {value:.4g} {unit} | — | new |")
            continue
        base_value, unit = baseline[key]
        value = current[key][0]
        delta = (value - base_value) / base_value if base_value != 0 else 0.0
        worsened = -delta if higher_is_better(unit) else delta
        status = ""
        if gated:
            status = "REGRESSED" if worsened > args.threshold else "ok"
            if worsened > args.threshold:
                regressions.append(
                    f"{key}: {base_value:.4g} -> {value:.4g} {unit} "
                    f"({delta:+.1%}, threshold ±{args.threshold:.0%})")
        lines.append(f"| `{key}` | {base_value:.4g} {unit} | {value:.4g} {unit}"
                     f" | {delta:+.1%} | {status} |")
    if regressions:
        lines += ["", f"**{len(regressions)} gated regression(s):**", ""]
        lines += [f"- {r}" for r in regressions]
    else:
        lines += ["", "No gated regressions."]

    table = "\n".join(lines)
    print(table)
    if args.summary:
        with open(args.summary, "a", encoding="utf-8") as fh:
            fh.write(table + "\n")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
