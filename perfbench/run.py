#!/usr/bin/env python3
"""Build the benchmark driver from source and run one workload.

Usage (from the repository root):
  python3 perfbench/run.py --workload <plate-disk|plate-hybrid|serve-window>
      --seed <n> --seconds <s> --trace <0|1>

The driver is built with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) on first use. Inputs go to a scratch directory under
.bench_work/ that is removed afterwards; a traced run's spans are kept as
.bench_work/trace-<workload>-<seed>.json. The last line of
stdout is the driver's JSON result; the exit code is non-zero when the build
fails, the driver fails, or an output check fails.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("plate-disk", "plate-hybrid", "serve-window")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures and builds the driver; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("library sources (src/) not found next to perfbench/")
        return None
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "-j",
                      str(os.cpu_count() or 1)])
        for cmd in steps:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if proc.returncode:
                sys.stderr.write(proc.stdout)
                log("build failed: " + " ".join(cmd))
                return None
    return os.path.join(build_dir, "perfbench_driver")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    driver = build()
    if driver is None:
        return 1
    work_dir = os.path.join(ROOT, ".bench_work",
                            f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        proc = subprocess.run(
            [driver, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work-dir", work_dir],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"driver exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        trace = os.path.join(work_dir, "trace.json")
        if os.path.isfile(trace):
            os.replace(trace, os.path.join(
                ROOT, ".bench_work", f"trace-{args.workload}-{args.seed}.json"))
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        if not isinstance(result, dict):
            raise ValueError("not an object")
    except ValueError:
        sys.stdout.write(proc.stdout)
        log(f"driver exited {proc.returncode} without a result")
        return 1
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0 or not result.get("correct"):
        log(f"output checks failed (driver exit {proc.returncode})")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
