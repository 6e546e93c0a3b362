#!/usr/bin/env python3
"""Build and run the served-query-path benchmark.

    python3 perfbench/run.py --workload wire-small --seed 1 --seconds 10 --trace 0

Run from the root of a MIDAS checkout. The first call configures and builds
perfbench/ (which compiles the MIDAS libraries from src/) into the directory
named by $CARGO_TARGET_DIR, or .bench_build; later calls rebuild only what
changed. Build output goes to stderr, so the last stdout line is the
benchmark's JSON result. Exits non-zero, without a result, when the build
or the run fails.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def source_id():
    """Content hash of the sources the benchmark builds (the checkout is
    not necessarily a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "sha256:" + h.hexdigest()[:16]


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no MIDAS sources at %s/src" % ROOT)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "midas_perfbench"],
                   stdout=sys.stderr, check=True)


def expected_digest(workload, seed):
    with open(os.path.join(BENCH_DIR, "expected_digests.json")) as f:
        entry = json.load(f).get(workload)
    if entry and entry["seed"] == seed:
        return entry["digest"]
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit("perfbench: build failed: %s" % e)

    cmd = [os.path.join(build_dir, "midas_perfbench"),
           "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
           "--out=" + os.path.join(ROOT, ".bench_out"),
           "--source-id=" + source_id()]
    expect = expected_digest(args.workload, args.seed)
    if expect is not None:
        cmd.append("--expect-digest=" + expect)
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
