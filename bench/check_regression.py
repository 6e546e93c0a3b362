#!/usr/bin/env python3
"""Kernel-speedup regression gate for CI (warn-only by default in ci.yml).

Runs bench_bitsliced_kernels at a toy-but-meaningful size, then checks the
acceptance point the bit-sliced tentpole was merged on — the k = 12 row of
GFSmall(7), i.e. the paper's l = 3 + ceil(log2 k) width for k = 12 — against
three gates:

  1. absolute: measured speedup must stay >= --min-speedup (default 5.0,
     the PR 3 acceptance threshold);
  2. relative: every (field, k) row present in the committed baseline
     BENCH_kernels.json must keep bit_exact == true;
  3. distributed: in the bench's end-to-end engine rows (midas_kpath at
     k = 8 and midas_motif at k = 6 with N2 in {16, 32, 64, 256, 1024},
     midas_scan at k = 3 with N2 in {32, 64, 256, 1024}; N = 4, N1 = 2),
     the bit-sliced kernel must not be slower than scalar at any N2 >= 16,
     and every row must be bit_exact (equal
     answers, clocks, messages and halo bytes). Before gating, the check
     proves it can fail: a fixture row with bit-sliced slower than scalar
     must be rejected.

The absolute gate deliberately sits far below the committed baseline
(~11x): CI runners are noisy shared machines, and this check exists to
catch "the bit-sliced path stopped being used / got 3x slower", not 10%
jitter. Exit status: 0 = pass, 1 = regression, 2 = could not run/parse.

A second, independent mode gates the service's worker scaling instead:
pass --service-json=BENCH_service.json (a bench_service_throughput dump)
and the check requires cached q/s to scale from 1 worker to the widest
measured pool. The required ratio is hardware-aware: on a machine with
hw hardware threads it is

    min(--min-scaling, max(--service-floor, 0.75 * min(4, hw)))

so a >= 4-core machine must show the full --min-scaling (default 3.0x,
the PR 8 acceptance bar), while a 1-core container — where multi-worker
wall-clock scaling is physically impossible — only has to hold the
no-regression floor (default 0.95: multi-worker must not be slower than
single-worker beyond noise). The machine's thread count is read from the
JSON's hardware_threads field (falling back to os.cpu_count()), so the
gate judges the numbers against the machine that produced them.

A third mode gates the constrained (Graph Motif) sieve against the
color-coding baseline: pass --motif-json=BENCH_motif.json (a bench_motif
dump, where both solvers ran to the same epsilon) and the check requires
(a) every row to have agree == true — the two solvers never disagree on
a decision both reached — and (b) the largest-k row's speedup to stay
>= --min-motif-speedup (default 1.0: at k = 8 with pigeonhole-adverse
multiplicities the algebraic sieve must at least match color coding,
whose hit probability collapses there).

A fourth mode validates the committed baselines themselves:
--validate-baselines [FILE...] parses every given BENCH_*.json (default:
every BENCH_*.json at the repo root) and *hard-fails* (exit 1, not a
warning) on any file that is unreadable, is not valid JSON, or lacks the
"bench"/"results" shape every baseline writer emits. CI runs this in the
bench-smoke job so a corrupt committed baseline breaks the build instead
of silently disabling the regression gates that read it.

Usage:
  python3 bench/check_regression.py --bench=build/bench/bench_bitsliced_kernels \
      [--baseline=BENCH_kernels.json] [--n=96] [--kmax=12] [--min-speedup=5.0]
  python3 bench/check_regression.py --service-json=BENCH_service.json \
      [--min-scaling=3.0] [--service-floor=0.95]
  python3 bench/check_regression.py --motif-json=BENCH_motif.json \
      [--min-motif-speedup=1.0]
  python3 bench/check_regression.py --validate-baselines [BENCH_a.json ...]
"""

import argparse
import glob
import json
import os
import subprocess
import sys
import tempfile


def validate_baselines(paths) -> int:
    if not paths:
        root = os.path.join(os.path.dirname(__file__), os.pardir)
        paths = sorted(glob.glob(os.path.join(root, "BENCH_*.json")))
    if not paths:
        print("check_regression: no BENCH_*.json baselines found",
              file=sys.stderr)
        return 1
    bad = 0
    for path in paths:
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            print(f"check_regression: BAD BASELINE {path}: {e}",
                  file=sys.stderr)
            bad += 1
            continue
        # Every baseline writer emits a dict with a "bench" name; the
        # table-shaped ones add a non-empty "results" list.
        if not isinstance(data, dict) or "bench" not in data:
            print(f"check_regression: BAD BASELINE {path}: missing the "
                  "top-level bench name", file=sys.stderr)
            bad += 1
            continue
        if "results" in data and (not isinstance(data["results"], list)
                                  or not data["results"]):
            print(f"check_regression: BAD BASELINE {path}: results is not "
                  "a non-empty list", file=sys.stderr)
            bad += 1
            continue
        rows = len(data["results"]) if "results" in data else 1
        print(f"baseline {os.path.basename(path)}: ok "
              f"({data['bench']}, {rows} row(s))")
    if bad:
        print(f"check_regression: {bad} unparseable baseline(s) — failing "
              "hard, not warning", file=sys.stderr)
        return 1
    print("check_regression: OK")
    return 0


# Smallest N2 at which a distributed bit-sliced engine must match scalar:
# blocks are as wide as the batch (8/16/32/64 lanes), so from N2 = 16, the
# service default, no block runs underfilled.
DIST_GATE_MIN_N2 = 16


def distributed_failures(rows) -> list:
    """Gate 3 over a bench's distributed rows; returns failure messages."""
    failures = []
    for r in rows:
        name = f"distributed {r['engine']} N2={r['n2']}"
        if not r.get("bit_exact"):
            failures.append(f"{name}: kernels no longer bit-identical "
                            "(answers/clocks/bytes)")
        if r["n2"] >= DIST_GATE_MIN_N2 and r["bitsliced_ms"] > r["scalar_ms"]:
            failures.append(
                f"{name}: bit-sliced {r['bitsliced_ms']:.2f} ms slower than "
                f"scalar {r['scalar_ms']:.2f} ms")
    return failures


def gate_self_test() -> bool:
    """The distributed gate must reject a bit-sliced-slower row at N2 >= 16
    in any engine and accept rows where it is faster (or slower only below
    N2 = 16)."""
    slow = [{"engine": "midas_motif", "n2": 16, "scalar_ms": 10.0,
             "bitsliced_ms": 12.0, "bit_exact": True}]
    fine = [{"engine": "midas_kpath", "n2": 8, "scalar_ms": 10.0,
             "bitsliced_ms": 12.0, "bit_exact": True},
            {"engine": "midas_scan", "n2": 256, "scalar_ms": 10.0,
             "bitsliced_ms": 4.0, "bit_exact": True}]
    inexact = [{"engine": "midas_scan", "n2": 256, "scalar_ms": 10.0,
                "bitsliced_ms": 4.0, "bit_exact": False}]
    ok = (bool(distributed_failures(slow)) and not distributed_failures(fine)
          and bool(distributed_failures(inexact)))
    print(f"distributed gate self-test: {'ok' if ok else 'BROKEN'}")
    return ok


def check_service_scaling(args) -> int:
    try:
        with open(args.service_json, encoding="utf-8") as fh:
            bench = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_regression: cannot read service json: {e}",
              file=sys.stderr)
        return 2

    cached = {r["workers"]: r["qps"]
              for r in bench["results"] if r.get("cache")}
    if len(cached) < 2 or 1 not in cached:
        print("check_regression: service json needs cached rows for "
              "workers=1 and at least one wider pool", file=sys.stderr)
        return 2
    wide = max(cached)
    scaling = cached[wide] / cached[1]

    hw = bench.get("hardware_threads") or os.cpu_count() or 1
    required = min(args.min_scaling,
                   max(args.service_floor, 0.75 * min(4, hw)))
    print(f"service scaling: cached qps {cached[1]:.1f} @1w -> "
          f"{cached[wide]:.1f} @{wide}w = {scaling:.2f}x "
          f"(required >= {required:.2f}x on {hw} hardware threads)")
    if scaling < required:
        print(f"check_regression: REGRESSION: worker scaling {scaling:.2f}x "
              f"< required {required:.2f}x", file=sys.stderr)
        return 1
    print("check_regression: OK")
    return 0


def check_motif(args) -> int:
    try:
        with open(args.motif_json, encoding="utf-8") as fh:
            bench = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_regression: cannot read motif json: {e}",
              file=sys.stderr)
        return 2

    rows = bench.get("results") or []
    if not rows:
        print("check_regression: motif json has no results", file=sys.stderr)
        return 2

    failures = []
    for r in rows:
        print(f"motif k={r['k']} palette={r['palette']}: sieve "
              f"{r['sieve_ms']:.2f} ms ({r['sieve_rounds']} rounds) vs "
              f"color coding {r['cc_ms']:.2f} ms ({r['cc_iterations']} "
              f"iters) = {r['speedup']:.2f}x, agree={r['agree']}")
        if not r.get("agree"):
            failures.append(f"k={r['k']}: sieve and color coding disagree "
                            "on a decision both reached")

    # The acceptance point is the largest measured k: that is where color
    # coding's per-iteration hit probability collapses and the sieve's
    # matched-epsilon advantage must show.
    top = max(rows, key=lambda r: r["k"])
    if top["speedup"] < args.min_motif_speedup:
        failures.append(
            f"k={top['k']}: speedup {top['speedup']:.2f}x < gate "
            f"{args.min_motif_speedup}x")

    if failures:
        for f in failures:
            print(f"check_regression: REGRESSION: {f}", file=sys.stderr)
        return 1
    print("check_regression: OK")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--bench",
                    help="path to the bench_bitsliced_kernels binary")
    ap.add_argument("--baseline",
                    default=os.path.join(os.path.dirname(__file__), os.pardir,
                                         "BENCH_kernels.json"))
    ap.add_argument("--n", type=int, default=96)
    ap.add_argument("--kmax", type=int, default=12)
    ap.add_argument("--min-speedup", type=float, default=5.0)
    ap.add_argument("--service-json",
                    help="BENCH_service.json to gate worker scaling instead "
                         "of kernel speedup")
    ap.add_argument("--min-scaling", type=float, default=3.0,
                    help="required 1->max-workers cached-qps ratio on a "
                         ">= 4-core machine")
    ap.add_argument("--service-floor", type=float, default=0.95,
                    help="no-regression floor for core-starved machines")
    ap.add_argument("--motif-json",
                    help="BENCH_motif.json to gate the constrained sieve "
                         "against the color-coding baseline")
    ap.add_argument("--min-motif-speedup", type=float, default=1.0,
                    help="required sieve-vs-color-coding speedup at the "
                         "largest measured k")
    ap.add_argument("--validate-baselines", nargs="*", metavar="FILE",
                    help="parse the given BENCH_*.json files (default: all "
                         "at the repo root); exit 1 on any unparseable one")
    args = ap.parse_args()

    if args.validate_baselines is not None:
        return validate_baselines(args.validate_baselines)
    if args.service_json:
        return check_service_scaling(args)
    if args.motif_json:
        return check_motif(args)
    if not args.bench:
        ap.error("--bench is required unless --service-json is given")
    if not gate_self_test():
        print("check_regression: the distributed gate accepts a "
              "bit-sliced-slower row", file=sys.stderr)
        return 2

    try:
        with open(args.baseline, encoding="utf-8") as fh:
            baseline = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_regression: cannot read baseline: {e}", file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "kernels.json")
        cmd = [args.bench, f"--n={args.n}", f"--kmax={args.kmax}",
               "--reps=3", f"--json={out}"]
        try:
            subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL,
                           timeout=600)
        except (OSError, subprocess.SubprocessError) as e:
            print(f"check_regression: bench failed: {e}", file=sys.stderr)
            return 2
        try:
            with open(out, encoding="utf-8") as fh:
                measured = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            print(f"check_regression: cannot parse bench output: {e}",
                  file=sys.stderr)
            return 2

    rows = {(r["field"], r["k"]): r for r in measured["results"]}

    failures = []

    # Gate 1: the acceptance point must keep its >= min-speedup margin.
    gate = rows.get(("GFSmall(7)", 12))
    if gate is None:
        print("check_regression: no GFSmall(7) k=12 row in bench output "
              f"(--kmax={args.kmax} too small?)", file=sys.stderr)
        return 2
    print(f"acceptance point GFSmall(7) k=12: speedup {gate['speedup']:.2f}x "
          f"(gate >= {args.min_speedup}x, committed baseline "
          f"{next((b['speedup'] for b in baseline['results'] if b['field'] == 'GFSmall(7)' and b['k'] == 12), '?')}x)")
    if gate["speedup"] < args.min_speedup:
        failures.append(
            f"speedup {gate['speedup']:.2f}x < gate {args.min_speedup}x")

    # Gate 2: every row in the baseline that we re-measured must still be
    # bit-exact — a speedup that costs correctness is a regression.
    for b in baseline["results"]:
        m = rows.get((b["field"], b["k"]))
        if m is None:
            continue  # baseline was generated with a larger --kmax
        if not m["bit_exact"]:
            failures.append(f"{b['field']} k={b['k']}: kernels no longer "
                            "bit-identical")

    # Gate 3: the distributed engine, end to end.
    dist = (measured.get("distributed") or {}).get("rows") or []
    if not dist:
        print("check_regression: no distributed rows in bench output",
              file=sys.stderr)
        return 2
    for r in dist:
        print(f"distributed {r['engine']} k={r['k']} N2={r['n2']}: scalar "
              f"{r['scalar_ms']:.2f} ms, bit-sliced {r['bitsliced_ms']:.2f} ms"
              f" = {r['speedup']:.2f}x, bit_exact={r['bit_exact']}")
    failures.extend(distributed_failures(dist))

    if failures:
        for f in failures:
            print(f"check_regression: REGRESSION: {f}", file=sys.stderr)
        return 1
    print("check_regression: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
