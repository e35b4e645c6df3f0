#!/usr/bin/env python3
"""End-to-end benchmark of hdldp's batch mean path and aggregation service.

Builds perfbench/ (which pulls in the repository's own CMake project) in
Release into .bench_build/ at the checkout root, then runs one workload:

    python3 perfbench/run.py --workload mean-highdim --seed 1 \
        --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics (end-to-end metrics with
--trace 0, per-layer metrics with --trace 1). A traced run also writes
its spans to .bench_build/traces/<workload>-seed<n>.spans.jsonl.

    python3 perfbench/run.py --selftest

runs every workload at a tiny scale and checks that every metric of
BENCHMARK.json is reported with its unit, that traced and untraced runs
publish bit-identical digests at 1 and 4 engine threads, and that the
two service workloads (1 and 3 workers) publish identical windows.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "hdldp_perfbench"
WORKLOADS = ("mean-highdim", "mean-dense", "serve-1w", "serve-3w-snap")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the benchmark; output goes to stderr."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (
        ROOT / "src" / "CMakeLists.txt"
    ).is_file():
        fail(f"no hdldp sources under {ROOT}; run from a full checkout")
    BUILD.mkdir(exist_ok=True)
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                          str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", str(BUILD), "--target",
                      "hdldp_perfbench", "-j", jobs])
        for step in steps:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                fail(f"build step failed: {' '.join(step)}")


def run_binary(workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns (stdout lines, parsed final JSON)."""
    work = BUILD / "work"
    traces = BUILD / "traces"
    work.mkdir(parents=True, exist_ok=True)
    traces.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={trace}", f"--work-dir={work}",
           f"--trace-out={traces / f'{workload}-seed{seed}.spans.jsonl'}",
           *extra]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        fail(f"{workload} exited with code {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(done.stdout)
        fail(f"{workload}: last output line is not a JSON result")
    return lines, result


def tagged(lines, tag):
    prefix = tag + " "
    return [line[len(prefix):] for line in lines if line.startswith(prefix)]


def selftest():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    digests = {}

    def check(workload, trace, threads):
        extra = ["--scale=tiny"]
        if threads:
            extra.append(f"--threads={threads}")
        lines, result = run_binary(workload, 7, 0.2, trace, extra)
        label = f"{workload} trace={trace} threads={threads or 'default'}"
        if not result.get("correct"):
            problems.append(f"{label}: not correct: {tagged(lines, 'error')}")
        wanted = spec["per_layer"] if trace else spec["end_to_end"]
        got = result["metrics"]
        for metric in wanted:
            entry = got.get(metric["name"])
            if entry is None:
                problems.append(f"{label}: metric {metric['name']} missing")
            elif entry["unit"] != metric["unit"]:
                problems.append(f"{label}: {metric['name']} unit "
                                f"{entry['unit']} != {metric['unit']}")
        extra_names = set(got) - {m["name"] for m in wanted}
        if extra_names:
            problems.append(f"{label}: unlisted metrics {sorted(extra_names)}")
        if not any(line.startswith("host nproc=") for line in lines):
            problems.append(f"{label}: no host/build stamp")
        digests[(workload, trace, threads)] = tuple(tagged(lines, "digest"))
        print(f"selftest: {label}: {len(got)} metrics, digest "
              f"{digests[(workload, trace, threads)]}", file=sys.stderr)

    for workload in ("mean-highdim", "mean-dense"):
        for threads in (1, 4):
            for trace in (0, 1):
                check(workload, trace, threads)
        runs = {digests[(workload, t, n)] for t in (0, 1) for n in (1, 4)}
        if len(runs) != 1:
            problems.append(f"{workload}: traced/untraced or 1/4-thread "
                            f"digests differ: {sorted(runs)}")
    for workload in ("serve-1w", "serve-3w-snap"):
        for trace in (0, 1):
            check(workload, trace, 0)
    serve = {digests[(w, t, 0)] for w in ("serve-1w", "serve-3w-snap")
             for t in (0, 1)}
    if len(serve) != 1:
        problems.append(f"serve workloads publish different windows: {serve}")

    for problem in problems:
        print(f"selftest: FAIL {problem}")
    print("selftest: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    build()
    if args.selftest:
        return selftest()
    lines, _ = run_binary(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
