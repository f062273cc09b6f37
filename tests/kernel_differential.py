"""Differential check of the FM kernel against an earlier revision.

Loads ``src/shicone/_fmcore_py.py`` twice, as committed at a git revision
and from the working tree, and compares their ``solve`` answers, witness
included, on seeded random systems.  Standard library only; pytest does
not collect it.  Run from anywhere inside the repository:

    python3 tests/kernel_differential.py --rev HEAD --systems 100000 --seed 1

Prints the counts (systems, infeasible, with EQ rows) and exits 1 on the
first mismatch, printing the system.
"""

from __future__ import annotations

import argparse
import random
import subprocess
import sys
import types
from pathlib import Path

KERNEL = "src/shicone/_fmcore_py.py"
EQ, GE, GT = 0, 1, 2
# Relative weights of EQ, GE and GT rows; one mix is drawn per system.
MIXES = [(0, 1, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1), (2, 1, 1)]


def load(name, source):
    module = types.ModuleType(name)
    exec(compile(source, f"<{name}>", "exec"), module.__dict__)
    return module


def random_system(rng):
    """dim 1-4, 1-10 rows, coefficients and right-hand sides in [-s, s]
    for a span s of 1-9, kinds drawn from one of MIXES."""
    dim = rng.randint(1, 4)
    span = rng.randint(1, 9)
    weights = rng.choice(MIXES)
    rows = []
    for _ in range(rng.randint(1, 10)):
        coeffs = tuple(rng.randint(-span, span) for _ in range(dim))
        kind = rng.choices((EQ, GE, GT), weights)[0]
        rows.append((coeffs, rng.randint(-span, span), kind))
    return dim, rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", default="HEAD", help="git revision to compare against")
    parser.add_argument("--systems", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    old_source = subprocess.run(
        ["git", "show", f"{args.rev}:{KERNEL}"],
        cwd=root, check=True, capture_output=True, text=True,
    ).stdout
    old = load("kernel_at_rev", old_source)
    new = load("kernel_in_tree", (root / KERNEL).read_text())

    rng = random.Random(args.seed)
    infeasible = with_eq = 0
    for i in range(args.systems):
        dim, rows = random_system(rng)
        want = old.solve(dim, rows)
        got = new.solve(dim, rows)
        if got != want:
            print(f"mismatch on system {i}: dim={dim} rows={rows}")
            print(f"  {args.rev}: {want!r}")
            print(f"  tree: {got!r}")
            return 1
        infeasible += want is None
        with_eq += any(kind == EQ for _, _, kind in rows)
    print(
        f"{args.systems} systems, {infeasible} infeasible, {with_eq} with EQ rows: "
        f"0 mismatches against {args.rev}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
