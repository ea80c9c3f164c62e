#!/usr/bin/env python3
"""Compares two icn-bench-v1 trajectory files and fails on wall-time regressions.

Usage:
  tools/bench_compare.py BASELINE.json CURRENT.json
      [--rtol 0.25] [--ops Op1,Op2,...] [--normalize-op OpName]

Runs are matched by full benchmark name. Any matched run whose op is in the
pinned set and whose wall_ns exceeds the baseline by more than --rtol
(default 0.25, the 25% gate) is a regression and the script exits nonzero.

With --normalize-op, each file's wall times are first divided by the mean
wall_ns of the named op *in that same file*. That cancels host-speed
differences, so a baseline recorded on one machine can gate runs on another:
what is compared is "how many units of the reference op does this op cost",
not raw nanoseconds. Pick a single-threaded, CPU-bound reference
(Crc32cTable works well) so the unit itself is stable.

Runs present in only one file are reported but tolerated: the avx2 rows of
the SIMD-lane benches skip (and drop out of the JSON) on hardware without
AVX2. A pinned op losing *all* of its runs is fatal, so an op cannot
silently vanish from the suite.
"""
import argparse
import json
import sys

# Ops gated by default: the analysis hot paths this repo optimizes, restricted
# to shapes the smoke preset keeps (see the smoke filters in bench/*.cpp).
DEFAULT_PINNED = [
    "WardNnChain",
    "SilhouetteScore",
    "CondensedDistances",
    "RscaTransform",
    "SquaredEuclideanSimd",
    "TreeShapPerSample",
    "ForestTraining",
]


def load_runs(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"error: {path}: unreadable or invalid JSON: {e}")
    if doc.get("schema") != "icn-bench-v1":
        sys.exit(f"error: {path}: not an icn-bench-v1 file")
    runs = {}
    for run in doc.get("runs", []):
        name = run.get("name")
        wall = run.get("wall_ns")
        if isinstance(name, str) and isinstance(wall, (int, float)) and wall > 0:
            runs[name] = float(wall)
    if not runs:
        sys.exit(f"error: {path}: no usable runs")
    return doc, runs


def op_of(name):
    """Mirrors bench/report.cpp: 'Fixture/BM_Name/123' -> 'Name'."""
    op = name.split("/")[0]
    at = name.find("BM_")
    if at != -1:
        op = name[at + 3:].split("/")[0]
    elif op.startswith("BM_"):
        op = op[3:]
    return op


def normalizer(path, runs, norm_op):
    ticks = [w for name, w in runs.items() if op_of(name) == norm_op]
    if not ticks:
        sys.exit(f"error: {path}: --normalize-op {norm_op!r} has no runs")
    return sum(ticks) / len(ticks)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--rtol", type=float, default=0.25,
                        help="allowed relative slowdown (default 0.25 = +25%%)")
    parser.add_argument("--ops", default=",".join(DEFAULT_PINNED),
                        help="comma-separated pinned op names to gate")
    parser.add_argument("--normalize-op", default=None, metavar="OP",
                        help="divide each file's wall times by the mean "
                             "wall_ns of OP in that file before comparing")
    args = parser.parse_args()
    pinned = {op.strip() for op in args.ops.split(",") if op.strip()}
    if not pinned:
        sys.exit("error: empty pinned op set")

    _, base_runs = load_runs(args.baseline)
    _, cur_runs = load_runs(args.current)
    base_scale = cur_scale = 1.0
    if args.normalize_op:
        base_scale = normalizer(args.baseline, base_runs, args.normalize_op)
        cur_scale = normalizer(args.current, cur_runs, args.normalize_op)
        print(f"normalizing by {args.normalize_op}: baseline unit "
              f"{base_scale:.1f} ns, current unit {cur_scale:.1f} ns")

    regressions = []
    matched_ops = set()
    limit = 1.0 + args.rtol
    for name in sorted(base_runs):
        op = op_of(name)
        if op not in pinned:
            continue
        if name not in cur_runs:
            print(f"  [only-baseline] {name}")
            continue
        matched_ops.add(op)
        ratio = (cur_runs[name] / cur_scale) / (base_runs[name] / base_scale)
        verdict = "REGRESSION" if ratio > limit else "ok"
        print(f"  [{verdict:>10}] {name}: {base_runs[name]:.1f} ns -> "
              f"{cur_runs[name]:.1f} ns (x{ratio:.3f}, limit x{limit:.2f})")
        if ratio > limit:
            regressions.append(name)
    for name in sorted(set(cur_runs) - set(base_runs)):
        if op_of(name) in pinned:
            print(f"  [only-current] {name}")

    missing = sorted(op for op in pinned
                     if op in {op_of(n) for n in base_runs}
                     and op not in matched_ops)
    if missing:
        print(f"error: pinned op(s) lost every run: {', '.join(missing)}",
              file=sys.stderr)
        return 1
    if regressions:
        print(f"error: {len(regressions)} run(s) regressed beyond "
              f"+{args.rtol:.0%}: {', '.join(regressions)}", file=sys.stderr)
        return 1
    print(f"ok: {len(matched_ops)} pinned op(s) within +{args.rtol:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
