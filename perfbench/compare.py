"""Compare two sets of benchmark records written by ``run.py --out``.

    python3 perfbench/compare.py BASE.jsonl HEAD.jsonl

Each file holds one JSON record per line.  The two sets must come from
the same Python version and the same kernel backend (the compiled
kernel alone changes the kernel's share of the time); otherwise the
script refuses and exits with 2.

For every workload and end-to-end metric it prints both medians with
their quartiles and the change, judged against the metric's bound in
BENCHMARK.json: ``worse`` when the head median is worse than the base
median by more than the bound, ``unresolved`` when either side's
quartile spread exceeds the bound (unless every head run beats every
base run), ``ok`` otherwise.  Per-layer metrics of traced records are
listed side by side without a verdict.  Exit status 1 means some metric
is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def values_by(records: list, trace: int) -> dict:
    """{(workload, metric): [values]} over records of one trace mode."""
    out: dict = {}
    for r in records:
        if r["trace"] == trace:
            for name, metric in r["result"]["metrics"].items():
                out.setdefault((r["workload"], name), []).append(metric["value"])
    return out


def verdict(base: list, head: list, better: str, bound: float) -> tuple:
    sign = 1 if better == "lower" else -1
    b1, bm, b3 = quartiles(base)
    h1, hm, h3 = quartiles(head)
    change = (hm - bm) / bm
    if sign * change > bound:
        return change, "worse"
    beats = all(sign * (h - b) < 0 for h in head for b in base)
    if max((b3 - b1) / bm, (h3 - h1) / hm) > bound and not beats:
        return change, "unresolved"
    return change, "ok"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, head = load(argv[0]), load(argv[1])
    envs = {(r["env"]["python"], r["env"]["kernel_backend"]) for r in base + head}
    if len(envs) != 1:
        print(f"refusing to compare: Python/kernel backend differ: {sorted(envs)}", file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    worse = False
    print(f"{'workload':12s} {'metric':14s} {'base median [q1,q3]':>30s} {'head median [q1,q3]':>30s} {'change':>8s} bound verdict")
    b_vals, h_vals = values_by(base, 0), values_by(head, 0)
    for workload in sorted({w for w, _ in b_vals} & {w for w, _ in h_vals}):
        for m in spec["end_to_end"]:
            key = (workload, m["name"])
            if key not in b_vals or key not in h_vals:
                continue
            change, word = verdict(b_vals[key], h_vals[key], m["better"], m["bound"])
            worse |= word == "worse"
            b1, bm, b3 = quartiles(b_vals[key])
            h1, hm, h3 = quartiles(h_vals[key])
            print(
                f"{workload:12s} {m['name']:14s} {bm:12.6g} [{b1:.4g},{b3:.4g}] "
                f"{hm:12.6g} [{h1:.4g},{h3:.4g}] {change:+8.1%} {m['bound']:.2f} {word}"
            )
    b_vals, h_vals = values_by(base, 1), values_by(head, 1)
    for key in sorted(set(b_vals) & set(h_vals)):
        bm, hm = statistics.median(b_vals[key]), statistics.median(h_vals[key])
        if bm or hm:
            print(f"{key[0]:12s} {key[1]:40s} {bm:14.6g} {hm:14.6g}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
