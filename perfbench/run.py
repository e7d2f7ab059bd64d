#!/usr/bin/env python3
"""Builds the benchmark from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout.  The build (Release, libsct plus the
sctworker binary plus the harness and its perfbench_ref reference-kernel
binary) goes to $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench, and is reused by later runs.  Build output
goes to stderr; stdout carries the harness's output, whose last line is the
result JSON.  The exit code is the harness's: non-zero on any failed
verdict or identity check, or when the sources are missing.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The harness ends the batch loop after --seconds and finishes the batch in
# flight; this only stops a hung run.
RUN_TIMEOUT_S = 175
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir, target):
    # The library sources live outside the benchmark's directory; without
    # them there is nothing to measure.
    for need in ("CMakeLists.txt", os.path.join("src", "engine", "CheckSession.h"),
                 os.path.join("examples", "sctworker.cpp")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"{need} not found under {ROOT}: not a libsct checkout")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs, "--target", target])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd), 1)
    return os.path.join(bdir, "bin", target)


def run(cmd):
    """Runs cmd in its own process group, echoing its stdout; returns the
    exit code and the last line.  The whole group is killed on timeout or
    interruption, so no worker process outlives the run."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)

    def kill(*_):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        fail("run interrupted", 1)

    signal.signal(signal.SIGTERM, kill)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except (subprocess.TimeoutExpired, KeyboardInterrupt):
        kill()
    lines = out.splitlines()
    for line in lines[:-1]:
        print(line)
    sys.stdout.flush()
    return proc.returncode, lines[-1] if lines else ""


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    bdir = build_dir()
    if args.selftest:
        sys.exit(subprocess.run([build(bdir, "perfbench_selftest")]).returncode)
    if args.workload is None or args.seed is None or args.seconds is None:
        ap.error("--workload, --seed and --seconds are required")
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    exe = build(bdir, "perfbench")
    code, last = run([exe, "--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace", str(args.trace),
                      "--work-dir", os.path.join(bdir, "runs")])
    try:
        result = json.loads(last)
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        fail(f"harness exited {code} without a result line", 1)
    print(last)
    sys.exit(code if code else (0 if result["correct"] else 1))


if __name__ == "__main__":
    main()
