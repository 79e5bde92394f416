#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload optimizer_session --seed 1 \
        --seconds 20 --trace 0

The build (CMake, Release) goes to $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when the variable is unset; the first run configures
and builds, later runs only rebuild what changed. Build output goes to
stderr. The last line of stdout is the run's JSON result (see README.md).
Exits non-zero without a result when the build or the run fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORKLOADS = ("optimizer_session", "admission_wire", "feedback_wire")
# The default window length, as BENCHMARK.json's run_seconds.
DEFAULT_SECONDS = 20


def run_timeout_s(seconds):
    """A run measures at most 1.5 windows (untraced, then a traced half)
    plus set-up and micro-measurements; anything beyond twice that plus a
    minute is a hang."""
    return 60 + 3 * seconds


def build(build_dir):
    """Configures (once) and builds perfbench + resest_server."""
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(["ninja", "--version"], stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode == 0:
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    return subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr).returncode == 0


def git_sha():
    try:
        out = subprocess.run(["git", "-C", REPO, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(
        REPO, ".bench_build")
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    work_dir = os.path.abspath(os.path.join(target, "perfbench-work"))
    try:
        built = build(build_dir)
    except OSError as e:
        print(f"perfbench: build tool missing: {e}", file=sys.stderr)
        built = False
    if not built:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--server-bin", os.path.join(build_dir, "resest", "resest_server"),
           "--work-dir", work_dir, "--git-sha", git_sha()]
    # Own process group, so a hung run is stopped together with the
    # resest_server it spawned.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=run_timeout_s(args.seconds))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = out.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(out)
        print(f"perfbench: run failed (exit {proc.returncode})",
              file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            raise ValueError("unexpected keys")
    except ValueError as e:
        sys.stderr.write(out)
        print(f"perfbench: malformed result line: {e}", file=sys.stderr)
        return 1
    sys.stdout.write(out if out.endswith("\n") else out + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
