#!/usr/bin/env python3
"""perfbench: the repository benchmark for the MLIR -> HLS compiler.

Builds the compiler libraries and the benchmark from source, runs one
workload in fresh processes and prints every metric by name and unit.
The last line of standard output is one JSON object:

  {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics, and the spans are written
to <build dir>/run/trace-<workload>-<seed>.json.

Usage (from the root of a checkout):
  python3 perfbench/run.py --workload compile-default --seed 1 \
      --seconds 25 --trace 0
  python3 perfbench/run.py --self-test

set-up time (setup_s) runs from process start to the first timed op. It is
measured in 2 * SETUP_SIDE + 1 processes: SETUP_SIDE that exit right after
set-up before the measuring one, and SETUP_SIDE after it, so the samples
span the whole run. setup_s is their median.

Exit status: 0 when every output checked out, 1 on a wrong output, a failed
build or a missing BENCHMARK.json (then no result line is printed).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SIDE = 4
READY = "perfbench: ready"
# A run must end within 180 s; keep headroom for the build check, the
# set-up-only processes and the gate.
CHILD_TIMEOUT_S = 150


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def load_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(target):
    """Configures once and builds `target`; the build log goes to stderr."""
    bdir = build_dir()
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(bdir, ignore_errors=True)  # retry configure next time
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", bdir, "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    return os.path.join(bdir, target)


def start(cmd):
    """Starts the program; returns (process, seconds until it was ready)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    if line.rstrip("\n") != READY:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"program did not get ready (said {line!r})")
    return proc, setup_s


def finish(proc):
    """Waits for the program; returns (exit code, stdout lines)."""
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("program timed out")
    return proc.returncode, out.splitlines()


def run_workload(args, spec):
    binary = build("perfbench")
    if binary is None:
        log("build failed")
        return 1
    work_dir = os.path.join(build_dir(), "run")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           # Relative to ROOT keeps the Unix socket path short.
           "--work-dir", os.path.relpath(work_dir, ROOT)]

    setups = []

    def time_setup_only():
        proc, setup_s = start(cmd + ["--setup-only"])
        code, _ = finish(proc)
        if code:
            raise RuntimeError(f"set-up-only run exited with {code}")
        setups.append(setup_s)

    for _ in range(SETUP_SIDE):
        time_setup_only()
    proc, setup_s = start(cmd)
    setups.append(setup_s)
    code, lines = finish(proc)
    for _ in range(SETUP_SIDE):
        time_setup_only()
    if not lines or not lines[-1].startswith("{"):
        log(f"program exited with {code} and no result line")
        return 1
    result = json.loads(lines[-1])

    section = "per_layer" if args.trace else "end_to_end"
    expected = {m["name"] for m in spec[section]}
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups),
                                        "unit": "s"}
    got = set(result["metrics"])
    if got != expected:
        log(f"metric set differs from BENCHMARK.json {section}: missing "
            f"{sorted(expected - got)}, unexpected {sorted(got - expected)}")
        return 1

    for line in lines[:-1]:
        print(line)
    print("# setup_s samples: " + ", ".join(f"{s:.4f}" for s in setups))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0 if code == 0 and result["correct"] else 1


def self_test():
    binary = build("perfbench_selftest")
    if binary is None:
        log("build failed")
        return 1
    return subprocess.run([binary]).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    try:
        spec = load_benchmark_json()
        if args.self_test:
            return self_test()
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names:
            log(f"unknown workload {args.workload!r}; choose from {names}")
            return 1
        if args.seed < 0 or not 0 < args.seconds <= 60:
            log("--seed must be >= 0 and --seconds in (0, 60]")
            return 1
        return run_workload(args, spec)
    except (OSError, ValueError, RuntimeError) as e:
        log(str(e))
        return 1


if __name__ == "__main__":
    sys.exit(main())
