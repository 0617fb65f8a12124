#!/usr/bin/env python3
"""Benchmark entry point: builds the library and the runner from source, runs
the helper self-test, then one workload.

    python3 pfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 pfbench/run.py --selftest

Run from the repository root. Build output goes to .bench_build/pfbench and
stderr; the runner's report goes to stdout, its last line one JSON object
{correct, attempted, failed, metrics}. Exits non-zero without a result when
the sources are missing, the build or self-test fails, or a library knob is
set in the environment.
"""
import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("kfac-bubbles", "lamb-multiproc", "serve-openloop")
BUILD_DIR = os.path.join(".bench_build", "pfbench")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
# Any failure of a step below ends the run well inside the 180 s budget of
# a measured run; only the first build in a checkout needs longer.
BUILD_TIMEOUT_S = 850
SELFTEST_TIMEOUT_S = 30


def fail(msg):
    print(f"pfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    repo_root = os.path.dirname(BENCH_DIR)
    if not (os.path.isfile(os.path.join(repo_root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(repo_root, "src"))):
        fail(f"library sources not found next to {BENCH_DIR}")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j4", "--target",
                  "pfbench_runner", "pfbench_selftest"])
    for cmd in steps:
        try:
            # Build chatter goes to stderr so stdout ends with the result.
            subprocess.run(cmd, check=True, stdout=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
                OSError) as e:
            fail(f"build failed: {e}")


def run(cmd, timeout):
    # The runner reaps its own forked children. On a timeout its whole
    # process group (forked stage processes included) is killed and reaped.
    p = subprocess.Popen(cmd, start_new_session=True)
    try:
        return p.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        fail(f"{cmd[0]} timed out after {timeout} s")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if not a.selftest and None in (a.workload, a.seed, a.seconds, a.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if not a.selftest and a.seed < 0:
        ap.error("--seed must be >= 0")
    if not a.selftest and not 1 <= a.seconds <= 60:
        ap.error("--seconds must be within 1..60")

    build()
    if run([os.path.join(BUILD_DIR, "pfbench_selftest")], SELFTEST_TIMEOUT_S):
        fail("helper self-test failed")
    if a.selftest:
        return 0
    trace_dir = os.path.join(BUILD_DIR, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    sys.stdout.flush()
    return run([os.path.join(BUILD_DIR, "pfbench_runner"),
                "--workload", a.workload, "--seed", str(a.seed),
                "--seconds", str(a.seconds), "--trace", str(a.trace),
                "--trace-dir", trace_dir], 3 * a.seconds + 100)


if __name__ == "__main__":
    sys.exit(main())
