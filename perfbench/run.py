#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload fleet-sparse --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds a Release copy of the library plus the
benchmark binary under $CARGO_TARGET_DIR (default .bench_build); later calls
only re-run the (no-op) incremental build. Build output goes to stderr. The
binary's artifact and, as the last line, its result object go to stdout;
artifacts and traced-mode span files are also written to
<build dir>/artifacts/. Exit code 0 = the run completed and its result line
is well formed; anything else = no result.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench-release")


def build(bdir, targets):
    """Configures (once) and builds `targets`; holds a lock so concurrent
    runs in one checkout never build over each other."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail(f"no library sources next to the benchmark (expected {ROOT}/src)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # Keep every write of the build inside the checkout: no compiler cache,
    # compiler temporaries under the build directory.
    env = dict(os.environ, CCACHE_DISABLE="1", TMPDIR=tmp)
    with open(os.path.join(bdir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            run_build_step(cmd, env)
        jobs = str(min(4, os.cpu_count() or 1))
        run_build_step(["cmake", "--build", bdir, "-j", jobs, "--target", *targets], env)


def run_build_step(cmd, env):
    try:
        done = subprocess.run(
            cmd, stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        fail(f"build step timed out: {' '.join(cmd)}")
    if done.returncode != 0:
        fail(f"build step failed ({done.returncode}): {' '.join(cmd)}")


def source_digest():
    """sha256 over the library and benchmark sources: identifies the code
    measured when the checkout is not a git repository."""
    digest = hashlib.sha256()
    roots = [os.path.join(ROOT, "src"), HERE, os.path.join(ROOT, "CMakeLists.txt")]
    files = []
    for root in roots:
        if os.path.isfile(root):
            files.append(root)
            continue
        for dirpath, _, names in os.walk(root):
            files += [
                os.path.join(dirpath, n)
                for n in names
                if n.endswith((".cpp", ".hpp", ".inc", ".txt", ".py"))
            ]
    for path in sorted(files):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")) or shutil.which("git") is None:
        return "unavailable"
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except subprocess.TimeoutExpired:
        return "unavailable"
    return done.stdout.strip() if done.returncode == 0 else "unavailable"


def expected_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode (None if absent)."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def validate(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        fail(f"result line is not JSON: {e}")
    if set(result) != RESULT_KEYS:
        fail(f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            fail(f"{key} is not a whole number")
    if result["attempted"] < 1:
        fail("no operation attempted")
    for name, metric in result["metrics"].items():
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"metric {name} has no finite value")
    expected = expected_metrics(trace)
    if expected is not None and sorted(result["metrics"]) != sorted(expected):
        fail(f"metrics {sorted(result['metrics'])} differ from BENCHMARK.json {sorted(expected)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true", help="build and run the self-test")
    args = parser.parse_args()

    bdir = build_dir()
    if args.selftest:
        build(bdir, ["mflb_perfbench_selftest"])
        try:
            done = subprocess.run([os.path.join(bdir, "mflb_perfbench_selftest")], timeout=600)
        except subprocess.TimeoutExpired:
            fail("self-test timed out")
        sys.exit(done.returncode)
    if not args.workload:
        parser.error("--workload is required")

    build(bdir, ["mflb_perfbench"])
    out_dir = os.path.join(os.path.dirname(bdir), "artifacts")
    os.makedirs(out_dir, exist_ok=True)
    env = dict(os.environ, PERFBENCH_GIT_SHA=git_sha(), PERFBENCH_SOURCE_SHA256=source_digest())
    cmd = [
        os.path.join(bdir, "mflb_perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out-dir", out_dir,
    ]
    try:
        done = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True, env=env, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        fail(f"benchmark binary exited with {done.returncode}")
    lines = done.stdout.rstrip("\n").split("\n")
    validate(lines[-1], args.trace == 1)
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
