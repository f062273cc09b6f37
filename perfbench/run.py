"""Suite benchmark of shicone: end-to-end metrics, or per-layer metrics
from a traced run.

    python3 perfbench/run.py --workload rank4-cones --seed 1 --seconds 25 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  Workloads (see workloads.py):

  rank4-cones  sampled cones of A4, B4, C4, D4, F4 through the region and
               flat bijection checks (FM kernel on feasible systems, Weyl
               algebra)
  rank3-whole  every rank <= 3 type through run_suite "all", m = 2, 3 and
               the whole-arrangement Poincare polynomial (kernel mostly on
               infeasible systems, Fraction flats)
  order-ring   ``shicone orderring`` requests through cli.main (posets,
               order polytope, JSON rendering; no kernel, no Weyl code)

One process drives everything, closed loop, one caller, no threads.  It
repeats passes over the workload's items until ``--seconds`` have gone
by and reports medians over passes.  Times are normalised by a reference
loop timed around every unit of work (see harness.py); the raw times are
in the record.  ``setup_s`` is the median of
several cold starts, each a fresh interpreter that imports shicone and
builds the root systems, Weyl groups, root posets and root indices of
the workload's types; those children run one after another and are
waited for.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends half
the time on untraced passes and half on passes with every layer's public
functions wrapped (layers.py), and prints the per-layer metrics.  The
last stdout line is the result; the line before it is a record with the
environment (nproc, Python, kernel backend, git commit, seed) that
``--out FILE`` also appends to FILE, for compare.py.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import harness

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench-work"
SETUP_RUNS = 5
MAX_PROBLEMS = 20

#: Run in a fresh interpreter: argv = perfbench dir, src, module, type names.
#: Prints measured and normalised seconds.
SETUP_CHILD = """
import importlib, sys, time
sys.path.insert(0, sys.argv[1])
from harness import speed_scale, time_reference
refs = [time_reference() for _ in range(5)]
start = time.perf_counter()
sys.path.insert(0, sys.argv[2])
importlib.import_module(sys.argv[3])
from shicone.rootsys import CartanType, build_root_system, root_index, root_poset, weyl_group
for name in sys.argv[4:]:
    rs = build_root_system(CartanType.parse(name))
    weyl_group(rs), root_poset(rs), root_index(rs)
seconds = time.perf_counter() - start
refs += [time_reference() for _ in range(5)]
print(seconds, seconds * speed_scale(refs))
"""

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="append the record to this JSON-lines file")
    return parser.parse_args(argv)


def import_shicone():
    """Import shicone from this checkout's src/, or refuse."""
    if not (SRC / "shicone" / "__init__.py").is_file():
        raise BenchError(f"no shicone sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import shicone

    if Path(shicone.__file__).resolve().parent != (SRC / "shicone").resolve():
        raise BenchError(f"imported shicone from {shicone.__file__}, not {SRC}")
    return shicone


def git_commit():
    """HEAD of the checkout read from .git, or None outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    """sha256 over the package sources, which identifies the code measured
    also where there is no git metadata."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.suffix in (".py", ".pyx") and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(shicone, seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "kernel_backend": shicone.KERNEL_BACKEND,
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "seed": seed,
    }


def cold_setup_s(workload) -> list:
    """(measured, normalised) set-up seconds of SETUP_RUNS fresh
    interpreters, one after another."""
    times = []
    for _ in range(SETUP_RUNS):
        child = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(HERE), str(SRC), workload.module, *workload.types],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=ROOT,
        )
        if child.returncode != 0:
            raise BenchError(f"set-up child failed:\n{child.stderr}")
        raw, scaled = child.stdout.split()
        times.append((float(raw), float(scaled)))
    return times


def prepare(workload) -> None:
    """The same set-up in this process, before any timing."""
    from shicone.rootsys import CartanType, build_root_system, root_index, root_poset, weyl_group

    importlib.import_module(workload.module)
    for name in workload.types:
        rs = build_root_system(CartanType.parse(name))
        weyl_group(rs), root_poset(rs), root_index(rs)


def measure(units, seconds: float) -> list:
    """Passes over the units until ``seconds`` have gone by (at least one)."""
    from workloads import run_pass

    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(units, time.perf_counter, harness.time_reference))
    return passes


def output_problems(passes) -> list:
    """Item failures, and outputs that differ between passes."""
    found = []
    first = [item.output for item in passes[0].items]
    for k, p in enumerate(passes):
        found.extend(f"{item.label}: {item.error}" for item in p.items if item.error)
        if k and [item.output for item in p.items] != first:
            found.append(f"pass {k} output differs from pass 0")
    return list(dict.fromkeys(found))


def end_to_end(passes, setup_times) -> tuple:
    """Metrics from each item's median normalised time over the passes;
    the median per item keeps a burst of interference that the reference
    loop misses from moving the estimate."""
    per_item = harness.item_medians([item.seconds for item in p.items] for p in passes)
    tail = harness.tail_permille(len(per_item))
    wall = sum(per_item)
    metrics = {
        "setup_s": statistics.median(scaled for _, scaled in setup_times),
        "wall_s": wall,
        "items_per_s": len(per_item) / wall,
        "item_p50_ms": harness.percentile(per_item, 500) * 1e3,
        "item_tail_ms": harness.percentile(per_item, tail) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {
        "pass_wall_s": [p.wall for p in passes],
        "raw_pass_wall_s": [p.raw_wall for p in passes],
        "raw_setup_s": statistics.median(raw for raw, _ in setup_times),
        "items_per_pass": len(per_item),
        "item_tail": {
            "percentile": harness.permille_label(tail),
            "samples": len(per_item),
            "beyond": len(per_item) - harness.nearest_rank(tail, len(per_item)),
        },
        "setup_samples_s": [scaled for _, scaled in setup_times],
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, detail


def traced(workload, seconds: float) -> tuple:
    import layers

    untraced = measure(workload.units, seconds / 2)
    tracer = harness.Tracer()
    bindings = layers.install(tracer)
    try:
        passes = measure(workload.units, seconds / 2)
    finally:
        not_restored = layers.restore(bindings)
    raw_wall = sum(p.raw_wall for p in passes)
    untraced_wall = statistics.fmean(p.wall for p in untraced)
    values = layers.metrics(
        tracer,
        len(passes),
        raw_wall / len(passes),
        sum(p.wall for p in passes) / raw_wall,
        statistics.fmean(p.wall for p in passes) / untraced_wall - 1,
    )
    units = layers.metric_units()
    problems = layers.problems(tracer, workload.name)
    problems += [f"binding not restored: {b}" for b in not_restored]
    detail = {"untraced_passes": len(untraced), "traced_passes": len(passes)}
    return untraced + passes, {k: (v, units[k]) for k, v in values.items()}, detail, problems


def run(args) -> dict:
    shicone = import_shicone()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        raise BenchError("--seconds must be positive")
    cls = WORKLOADS[args.workload]
    setup_times = cold_setup_s(cls) if not args.trace else []
    prepare(cls)
    workdir = WORKDIR / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = cls(args.seed, str(workdir))
        if args.trace:
            passes, metrics, detail, problems = traced(workload, args.seconds)
        else:
            passes = measure(workload.units, args.seconds)
            metrics, detail = end_to_end(passes, setup_times)
            problems = []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORKDIR.is_dir() and not any(WORKDIR.iterdir()):
            WORKDIR.rmdir()

    problems = output_problems(passes) + problems
    attempted = sum(len(p.items) for p in passes)
    failed = sum(1 for p in passes for item in p.items if item.error)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    first = passes[0].items
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "env": environment(shicone, args.seed),
        "passes": len(passes),
        "failed_frac": harness.failed_frac(attempted, failed),
        "output_sha256": hashlib.sha256(
            "\n".join(f"{i.label}\t{i.output}" for i in first).encode()
        ).hexdigest(),
        "problems": problems[:MAX_PROBLEMS],
        **detail,
        "result": result,
    }
    return record


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        record = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name, metric in record["result"]["metrics"].items():
        print(f"{name:40s} {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(f"{'failed_frac':40s} {record['failed_frac']:.6g} fraction", file=sys.stderr)
    for problem in record["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
