#!/usr/bin/env python3
"""Builds and runs the benchmark; see perfbench/README.md.

    python3 perfbench/run.py --workload cold_read --seed 1 --seconds 20 --trace 0

Run from the repository root (or anywhere: paths are resolved from this
file). The first run configures and builds perfbench/ (a CMake project of
its own over ../src) in .bench_build/perfbench; later runs only rebuild what
changed. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer ones, and
the spans of the traced run are written to
.bench_build/perfbench-traces/<workload>-seed<seed>.json.
"""
import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCE = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "perfbench-work"
TRACES = ROOT / ".bench_build" / "perfbench-traces"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src").is_dir():
        fail(f"no library sources at {ROOT / 'src'}; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(SOURCE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "perfbench"])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            fail("build failed: " + " ".join(step))
    return BUILD / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # BENCHMARK.json lists the workloads steady enough to gate on; the
    # binary also runs hot_read (see README.md) and rejects unknown names.
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    expected = config["per_layer" if args.trace else "end_to_end"]

    binary = build()
    WORK.mkdir(parents=True, exist_ok=True)
    TRACES.mkdir(parents=True, exist_ok=True)
    cpus = sorted(os.sched_getaffinity(0))
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--cpus", ",".join(map(str, cpus)),
               "--workdir", str(WORK),
               "--trace-out",
               str(TRACES / f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"perfbench exited with {proc.returncode}")
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    names = [m["name"] for m in expected]
    if set(metrics) != set(names):
        fail(f"metrics differ from BENCHMARK.json: got {sorted(metrics)}")
    for m in expected:
        if metrics[m["name"]]["unit"] != m["unit"]:
            fail(f"{m['name']} reported in {metrics[m['name']]['unit']}")
    for line in lines[:-1]:
        print(line)
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: metrics[name] for name in names},
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
