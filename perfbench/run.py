#!/usr/bin/env python3
"""End-to-end benchmark of the chordal coloring / MIS library.

Builds perfbench/ (the library plus one driver binary) in Release mode, then
runs each requested workload in its own child process, so peak RSS is a
per-workload high-water mark and a crash, OOM kill or timeout becomes a
failed report instead of a missing one.

    python3 perfbench/run.py --workload ktree --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics of untraced
runs, --trace 1 the per-layer metrics of a traced run. Build output goes to
stderr; the build tree is .bench_build/ (or $CARGO_TARGET_DIR) under the
checkout root.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["interval", "ktree"]
# A run must end within 180 s; a child that runs longer has hung.
CHILD_TIMEOUT_S = 170


def build():
    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                   ".bench_build"))
    build_dir = os.path.join(build_root, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                 build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", build_dir, "--target", "perfbench",
                 "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def run_workload(binary, workload, args, threads):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--threads", str(threads)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.splitlines()
        error = f"exit code {proc.returncode}" if proc.returncode else None
    except subprocess.TimeoutExpired as e:
        out = e.stdout or ""
        lines = (out.decode() if isinstance(out, bytes) else out).splitlines()
        error = f"timed out after {CHILD_TIMEOUT_S} s"
    report = None
    if error is None and lines:
        try:
            report = json.loads(lines[-1])
            lines = lines[:-1]
        except json.JSONDecodeError:
            error = "no report line"
    for line in lines:
        print(line)
    if report is None:
        # The workload's operations were lost with the process.
        print(f"{workload}: {error or 'empty output'}", file=sys.stderr)
        report = {"correct": False, "attempted": 1, "failed": 1,
                  "metrics": {}}
    return report


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()

    binary = build()
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else (os.cpu_count() or 1)
    threads = max(1, min(4, cpus))
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    reports = {w: run_workload(binary, w, args, threads) for w in workloads}

    if len(reports) == 1:
        result = reports[workloads[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in reports.values()),
            "attempted": sum(r["attempted"] for r in reports.values()),
            "failed": sum(r["failed"] for r in reports.values()),
            "metrics": {f"{w}.{name}": m for w, r in reports.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
