#!/usr/bin/env python3
"""Merges repeated icn-bench-v1 runs into one file of per-row medians.

Usage:
  tools/bench_median.py OUT.json RUN1.json RUN2.json RUN3.json [...]

Every input must come from the same bench, preset, SIMD level and CRC
backend (the same binary run several times on one host). For each benchmark
row, the output keeps the whole record of the run whose wall_ns is the
median over the inputs (the lower median for an even count), so a row is
always one real measurement. Rows missing from any input are dropped. The
top-level fields are those of the first input, plus a `notes` line saying
how many runs were merged.

This is how the smoke baselines under bench/baselines/ are recorded. On a
shared host a row can spend a whole run in a slow spell (about 1.5x, unseen
by the Crc32cTable normaliser); a baseline taken from such a run, or from a
rare fast one, would hide or fail the +25% gate of tools/bench_compare.py
on every later run.
"""
import json
import statistics
import sys

MATCHED_KEYS = ("schema", "bench", "preset", "simd", "crc32c_backend")


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"error: {path}: unreadable or invalid JSON: {e}")
    if doc.get("schema") != "icn-bench-v1":
        sys.exit(f"error: {path}: not an icn-bench-v1 file")
    return doc


def main():
    if len(sys.argv) < 4:
        sys.exit("usage: tools/bench_median.py OUT.json RUN1.json RUN2.json "
                 "[...]")
    out_path, paths = sys.argv[1], sys.argv[2:]
    docs = [load(p) for p in paths]
    first = docs[0]
    for path, doc in zip(paths[1:], docs[1:]):
        for key in MATCHED_KEYS:
            if doc.get(key) != first.get(key):
                sys.exit(f"error: {path}: {key} {doc.get(key)!r} differs from "
                         f"{paths[0]}'s {first.get(key)!r}")

    by_name = [{run["name"]: run for run in doc["runs"]} for doc in docs]
    merged = []
    for run in first["runs"]:
        name = run["name"]
        samples = [runs[name] for runs in by_name if name in runs]
        if len(samples) != len(docs):
            print(f"  dropped {name}: in {len(samples)} of {len(docs)} runs")
            continue
        wall = statistics.median_low(s["wall_ns"] for s in samples)
        merged.append(next(s for s in samples if s["wall_ns"] == wall))

    out = {k: v for k, v in first.items() if k not in ("runs", "notes")}
    note = f"per-row median of {len(docs)} runs (tools/bench_median.py)"
    out["notes"] = f"{first['notes']}; {note}" if "notes" in first else note
    # The layout bench/report.cpp writes: one line per key, one per run.
    head = [f'  {json.dumps(k)}: {json.dumps(v)}' for k, v in out.items()]
    rows = [f"    {json.dumps(run)}" for run in merged]
    with open(out_path, "w", encoding="utf-8") as f:
        f.write("{\n" + ",\n".join(head) + ',\n  "runs": [\n' +
                ",\n".join(rows) + "\n  ]\n}\n")
    print(f"wrote {out_path} ({len(merged)} rows, median of {len(docs)} runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
