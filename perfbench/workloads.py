"""The benchmark's workloads: seeded inputs, their items, output checks.

A workload is a list of *units*, each one call into shicone that the
runner times.  A unit expands into one or more *items* (the things the
end-to-end metrics count) and checks each item's output against values
known independently of the code under test wherever such values exist:
Catalan and Fuss-Catalan numbers, the Shi Poincare polynomial
``(1 + h t)^n``, antichain counts by a separate counter.

Every workload is closed loop with one caller: a unit starts when the
previous one has returned.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
from dataclasses import dataclass
from math import comb, prod
from typing import Callable, Optional

import harness

RANK3_TYPES = ("A1", "A2", "A3", "B2", "B3", "C3", "D3", "G2")
RANK4_TYPES = ("A4", "B4", "C4", "D4", "F4")
ALL_TYPES = RANK3_TYPES + RANK4_TYPES

#: Cones sampled per rank-4 type, one from each stratum of the region count.
CONES_PER_TYPE = 25
#: Random posets for order-ring: (how many, smallest, largest antichain count).
#: Targets are spaced geometrically inside each band.
POSET_BANDS = ((60, 100, 400), (20, 400, 1600), (6, 1600, 6400), (1, 16000, 16000))
#: A random poset is kept when its antichain count is in [(1 - TOL) T, T].
POSET_TOL = 0.02
#: Extended-level values stated in the literature beyond the Fuss-Catalan count.
LEVEL_GOLDEN = {("A2", 2): {"flats": 11, "regions": 12}, ("A3", 2): {"poincare": [1, 12, 29, 13]}}


@dataclass
class Item:
    label: str
    seconds: float
    output: str  # compared across passes of one run
    error: Optional[str] = None


@dataclass
class Unit:
    label: str
    call: Callable  # () -> raw result; this is what is timed
    expand: Callable  # (raw, seconds) -> list of Item
    n_items: int  # items the unit stands for if ``call`` raises


# -- independent numerology ------------------------------------------------


def coxeter_data(name: str) -> tuple:
    """(rank, Coxeter number, degrees) from the classification tables."""
    family, n = name[0], int(name[1:])
    if family == "A":
        return n, n + 1, tuple(range(2, n + 2))
    if family in "BC":
        return n, 2 * n, tuple(range(2, 2 * n + 1, 2))
    if family == "D":
        return n, 2 * n - 2, tuple(range(2, 2 * n - 1, 2)) + (n,)
    return {"G2": (2, 6, (2, 6)), "F4": (4, 12, (2, 6, 8, 12))}[name]


def fuss_catalan(name: str, m: int) -> int:
    """Dominant regions of the level-m extended Shi arrangement."""
    _, h, degrees = coxeter_data(name)
    return prod(m * h + d for d in degrees) // prod(degrees)


def shi_poincare(name: str) -> list:
    """Poincare polynomial of the whole Shi arrangement, (1 + h t)^n."""
    n, h, _ = coxeter_data(name)
    return [comb(n, k) * h**k for k in range(n + 1)]


def poly_coeffs(text: str) -> list:
    """Coefficients of an IntPolynomial printed as e.g. ``1 + 6t + 5t^2``."""
    coeffs: dict = {}
    for term in text.split(" + "):
        m = re.fullmatch(r"(\d*)(t(?:\^(\d+))?)?", term.strip())
        if not m or not term.strip():
            raise ValueError(f"cannot read polynomial term {term!r}")
        degree = 0 if not m.group(2) else int(m.group(3) or 1)
        coeffs[degree] = int(m.group(1) or 1)
    return [coeffs.get(k, 0) for k in range(max(coeffs) + 1)]


# -- random posets ----------------------------------------------------------


def _closure(n: int, pairs) -> list:
    """Up-set bitmasks of the order generated by pairs (i, j), i < j."""
    up = [1 << i for i in range(n)]
    for i, j in pairs:
        up[i] |= 1 << j
    for i in reversed(range(n)):  # successors of i all have larger labels
        mask = up[i] & ~(1 << i)
        while mask:
            low = mask & -mask
            up[i] |= up[low.bit_length() - 1]
            mask ^= low
    return up


def count_antichains(up: list) -> int:
    """Antichains of a poset given by up-set masks, by the recursion
    a(S) = a(S - x) + a(S - comparables(x)) with memoisation."""
    n = len(up)
    down = [0] * n
    for i in range(n):
        for j in range(n):
            if up[i] >> j & 1:
                down[j] |= 1 << i
    comparable = [up[i] | down[i] for i in range(n)]
    memo = {0: 1}

    def count(mask: int) -> int:
        if mask not in memo:
            x = (mask & -mask).bit_length() - 1
            memo[mask] = count(mask & ~(1 << x)) + count(mask & ~comparable[x])
        return memo[mask]

    return count((1 << n) - 1)


def random_poset(rng: random.Random, target: int) -> tuple:
    """A random naturally labelled poset with about ``target`` antichains.

    Relations are added in a random order; the antichain count only falls
    as they are added, so a bisection finds the shortest prefix with at
    most ``target`` antichains.  Prefixes that overshoot the tolerance
    band are redrawn.  Returns (up-set masks, antichain count).
    """
    n = target.bit_length() + 4
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    while True:
        rng.shuffle(pairs)
        lo, hi = 0, len(pairs)  # count(prefix hi) <= target < count(prefix lo)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if count_antichains(_closure(n, pairs[:mid])) <= target:
                hi = mid
            else:
                lo = mid
        up = _closure(n, pairs[:hi])
        found = count_antichains(up)
        if found >= (1 - POSET_TOL) * target:
            return up, found


def poset_json(up: list) -> dict:
    """The poset file format of ``shicone orderring --poset-file``."""
    n = len(up)
    strict = [up[i] & ~(1 << i) for i in range(n)]
    covers = []
    for i in range(n):
        above_cover = 0
        mask = strict[i]
        while mask:
            low = mask & -mask
            above_cover |= strict[low.bit_length() - 1]
            mask ^= low
        covers.extend([i, j] for j in range(n) if (strict[i] & ~above_cover) >> j & 1)
    return {"elements": list(range(n)), "covers": covers}


# -- workloads ----------------------------------------------------------------


class Workload:
    """Base: the types whose set-up the workload needs, and its units."""

    name = ""
    types: tuple = ()
    module = ""  # the module a user of this workload imports

    def __init__(self, seed: int, workdir: str):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.units = self.build()
        self.rng.shuffle(self.units)

    def build(self) -> list:
        raise NotImplementedError


def _rs(name: str):
    from shicone.rootsys import CartanType, build_root_system

    return build_root_system(CartanType.parse(name))


class Rank4Cones(Workload):
    """Sampled rank-4 cones through the region and flat bijection checks.

    Per type the cones are sorted by region count (then word length) and
    cut into CONES_PER_TYPE strata holding equal shares of all regions
    (a cone costs about a constant per region), so the many small cones
    share a few wide strata and the large ones narrow strata; the seed
    picks one cone per stratum.  The work of a pass, its median and its
    tail then barely depend on the seed, while every seed sees different
    cones.
    """

    name = "rank4-cones"
    types = RANK4_TYPES
    module = "shicone.verify"

    def build(self) -> list:
        from shicone.rootsys import weyl_group
        from shicone.shi import poincare

        units = []
        for name in self.types:
            rs = _rs(name)
            ranked = sorted(
                (poincare(rs, w)(1), len(w.word), i, w)
                for i, w in enumerate(weyl_group(rs))
            )
            total = sum(regions for regions, *_ in ranked)
            strata = [[] for _ in range(CONES_PER_TYPE)]
            before = 0
            for entry in ranked:
                strata[before * CONES_PER_TYPE // total].append(entry)
                before += entry[0]
            for stratum in strata:
                regions, _, _, w = self.rng.choice(stratum)
                units.append(self._unit(name, rs, w, regions))
        return units

    @staticmethod
    def _unit(name, rs, w, regions: int) -> Unit:
        from shicone import verify

        label = f"{name}:{''.join(str(i + 1) for i in w.word) or 'e'}"

        def call():
            ctx = verify.TypeContext(rs)  # fresh per cone: no reuse across passes
            ctx.W = (w,)
            return (
                verify.check_region_ceiling_bijection(ctx),
                verify.check_flat_bijection(ctx),
            )

        def expand(raw, seconds):
            region_text, flat_text = raw
            got_regions = int(re.search(r"(\d+) regions", region_text).group(1))
            got_flats = int(re.search(r"(\d+) flats", flat_text).group(1))
            error = None
            if got_regions != regions or got_flats != regions:
                error = f"{got_regions} regions and {got_flats} flats, Poincare(1) = {regions}"
            return [Item(label, seconds, f"{region_text}; {flat_text}", error)]

        return Unit(label, call, expand, 1)


class Rank3Whole(Workload):
    """Every rank <= 3 type through the full suite, the extended levels
    m = 2, 3 and the whole-arrangement Poincare polynomial.  The inputs
    are fixed; the seed sets the order of the calls."""

    name = "rank3-whole"
    types = RANK3_TYPES
    module = "shicone.verify"
    SUITE_CHECKS = 11  # checks run_suite(rs, "all") runs at rank <= 3

    def build(self) -> list:
        units = []
        for name in self.types:
            rs = _rs(name)
            units.append(self._suite(name, rs))
            units.extend(self._level(name, rs, m) for m in (2, 3))
            units.append(self._whole(name, rs))
        return units

    def _suite(self, name, rs) -> Unit:
        from shicone import verify

        def expand(results, seconds):
            if len(results) != self.SUITE_CHECKS:
                raise ValueError(f"{len(results)} checks ran, expected {self.SUITE_CHECKS}")
            return [
                Item(
                    f"{name}:{r.name}",
                    r.elapsed,
                    r.details,
                    None if r.passed else f"check failed: {r.details}",
                )
                for r in results
            ]

        return Unit(f"{name}:all", lambda: verify.run_suite(rs, "all"), expand, self.SUITE_CHECKS)

    @staticmethod
    def _level(name, rs, m: int) -> Unit:
        from shicone import verify

        label = f"{name}:m={m}"

        def expand(results, seconds):
            (r,) = results
            found = re.search(r"(\d+) flats vs (\d+) regions, .* poincare (.*)$", r.details)
            got = {
                "flats": int(found.group(1)),
                "regions": int(found.group(2)),
                "poincare": poly_coeffs(found.group(3)),
            }
            want = {"regions": fuss_catalan(name, m), **LEVEL_GOLDEN.get((name, m), {})}
            wrong = {k: got[k] for k in want if got[k] != want[k]}
            error = None
            if not r.passed:
                error = f"check failed: {r.details}"
            elif wrong:
                error = f"level {m}: got {wrong}, expected {want}"
            return [Item(label, r.elapsed, r.details, error)]

        return Unit(label, lambda: verify.run_suite(rs, m=m), expand, 1)

    @staticmethod
    def _whole(name, rs) -> Unit:
        from shicone import shi

        label = f"{name}:full_arrangement_poincare"

        def expand(poly, seconds):
            got = list(poly)
            error = None if got == shi_poincare(name) else f"Poincare {got}"
            return [Item(label, seconds, str(got), error)]

        return Unit(label, lambda: shi.full_arrangement_poincare(rs), expand, 1)


class OrderRing(Workload):
    """``shicone orderring`` requests through ``cli.main``: the root poset
    of every type plus seeded random posets whose antichain counts sit in
    fixed bands, so the seed changes the posets but hardly the work."""

    name = "order-ring"
    types = ALL_TYPES
    module = "shicone.cli"

    def build(self) -> list:
        units = [
            self._request(f"type:{name}", ["--type", name], fuss_catalan(name, 1))
            for name in self.types
        ]
        for count, low, high in POSET_BANDS:
            for k in range(count):
                target = round(low * (high / low) ** (k / count))
                up, antichains = random_poset(self.rng, target)
                path = os.path.join(self.workdir, f"poset-{len(units)}.json")
                with open(path, "w") as fh:
                    json.dump(poset_json(up), fh)
                units.append(
                    self._request(f"poset:{antichains}", ["--poset-file", path], antichains)
                )
        return units

    @staticmethod
    def _request(label: str, args: list, antichains: int) -> Unit:
        from shicone import cli

        def call():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["orderring", *args])
            return code, out.getvalue()

        def expand(raw, seconds):
            code, text = raw
            payload = json.loads(text)["payload"]
            sizes = (
                sum(payload["hilbert"]),
                len(payload["vertices"]),
                len(payload["standard_monomials"]),
            )
            error = None
            if code != 0 or sizes != (antichains,) * 3:
                error = f"exit {code}; hilbert(1), vertices, monomials = {sizes}, expected {antichains}"
            return [Item(label, seconds, hashlib.sha256(text.encode()).hexdigest(), error)]

        return Unit(label, call, expand, 1)


WORKLOADS = {w.name: w for w in (Rank4Cones, Rank3Whole, OrderRing)}


@dataclass
class Pass:
    raw_wall: float  # measured seconds inside calls
    wall: float  # the same, normalised (harness.window_scales)
    items: list  # Item, seconds normalised


def run_pass(units: list, clock, reference) -> Pass:
    """One closed-loop pass.  ``reference()`` times the reference loop;
    it runs before the first unit and after each unit."""
    refs = [reference()]
    timed = []  # (seconds, items) per unit
    for unit in units:
        start = clock()
        try:
            raw = unit.call()
            error = None
        except Exception as exc:  # a failing item is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        seconds = clock() - start
        refs.append(reference())
        items = None
        if error is None:
            try:
                items = unit.expand(raw, seconds)
            except Exception as exc:
                error = f"output unreadable: {type(exc).__name__}: {exc}"
        if items is None:
            items = [Item(unit.label, seconds / unit.n_items, "", error)] * unit.n_items
        timed.append((seconds, items))
    result = Pass(0.0, 0.0, [])
    for (seconds, items), scale in zip(timed, harness.window_scales(refs)):
        result.raw_wall += seconds
        result.wall += seconds * scale
        result.items.extend(Item(i.label, i.seconds * scale, i.output, i.error) for i in items)
    return result
