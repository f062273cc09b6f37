"""Verification suites for the arrangement/antichain correspondences.

Each check re-derives one structural claim from scratch and reports a
pass/fail result with counts and timing.  The suites back the ``verify``
CLI command and the acceptance tests; they are deliberately redundant
with the constructions they test (oracles enumerate, constructions use
the bijections) so that agreement is evidence rather than tautology.

The region and flat oracles (a feasibility-pruned cell enumeration over
the level-1 hyperplanes, and the closure of those hyperplanes under
intersection) never read the root poset and are bounded to rank <= 3;
every other check, the Eulerian interval check included, runs at every
rank.  Hilbert series are compared with the Mobius Poincare polynomial
of each cone's flats; on the dominant cone the series of the
Varchenko-Gel'fand ring and of the order ring are computed by ranks
from their own points.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import orderring
from .exactgeom import (
    EQ,
    GT,
    check_farkas,
    check_witness,
    contains_flat,
    feasible_rows,
    flat_contains,
    intersect_hyperplanes,
    matrix_rank,
)
from .poly import IntPolynomial
from .posets import FinitePoset
from .rootsys import (
    RootSystem,
    act,
    element_from_word,
    inversion_set,
    numerology,
    root_index,
    root_poset,
    signed_roots,
    weyl_group,
)
from .shi import (
    MAX_ORACLE_RANK,
    act_point,
    antichain_points,
    ceiling_oracle,
    cone_poset,
    cone_rows,
    dominant_sign_oracle,
    flats_in_cone,
    flats_oracle,
    fuss_dominant,
    poincare,
    regions_in_dominant,
    transport_regions,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    elapsed: float
    details: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name} ({self.elapsed:.2f}s) {self.details}"


class _Failure(Exception):
    pass


def _need(cond: bool, message: str) -> None:
    if not cond:
        raise _Failure(message)


class TypeContext:
    """Per-type caches shared across checks: each cone's subposet, its
    regions and its flats, built once for every check that reads them."""

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self.W = weyl_group(rs)
        self.rp = root_poset(rs)
        self._memo: dict = {}

    def _cached(self, kind: str, w, build):
        key = (kind, w.word)
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def sub(self, w) -> FinitePoset:
        return self._cached("sub", w, lambda: cone_poset(self.rs, w))

    def regions(self, w) -> list:
        return self._cached("regions", w, lambda: regions_in_dominant(self.rs, self.sub(w)))

    def cone_regions(self, w) -> list:
        return self._cached(
            "cone_regions",
            w,
            lambda: transport_regions(self.rs, w, self.regions(w)),
        )

    def flats(self, w):
        return self._cached("flats", w, lambda: flats_in_cone(self.rs, self.sub(w), w))


def _witness_in_region(rs, inv, E, region) -> bool:
    """Exact witness check of a region description: the witness pairs
    below 0 with the roots of ``inv``, above 0 with every other root,
    below 1 with the region's ideal and above 1 with the rest of E."""
    roots, N = signed_roots(rs), len(rs.positive_roots)
    above_one = E - region.ideal
    rows = [(roots[N + i], -1, GT) for i in region.ideal - inv]
    rows += [
        (roots[N + i], 0, GT) if i in inv else (roots[i], int(i in above_one), GT)
        for i in range(N)
    ]
    return check_witness(rs.rank, rows, region.witness)


# -- individual checks ---------------------------------------------------


def check_region_ceiling_bijection(ctx: TypeContext) -> str:
    """Regions of each cone against antichains, with facet oracles."""
    rs = ctx.rs
    idx = root_index(rs)
    n_regions = 0
    n_probes = 0
    for w in ctx.W:
        sub = ctx.sub(w)
        E = sub.elements
        E_set = frozenset(E)
        regions = ctx.regions(w)
        _need(len(regions) == len(sub.antichains()), "region/antichain count mismatch")
        seen_ideals = set()
        for region in regions:
            _need(sub.is_ideal(region.ideal), "region set is not an order ideal")
            _need(
                region.ceiling == sub.max_elements(region.ideal),
                "ceiling is not the ideal's maximal antichain",
            )
            _need(
                sub.ideal_generated(region.ceiling) == region.ideal,
                "ceiling does not regenerate the ideal",
            )
            _need(
                _witness_in_region(rs, frozenset(), E_set, region),
                "witness violates the region description",
            )
            oracle = ceiling_oracle(rs, E, region)
            n_probes += len(region.ideal)
            _need(oracle == region.ceiling, "facet oracle disagrees with ceiling")
            seen_ideals.add(region.ideal)
        _need(len(seen_ideals) == len(regions), "region ideals are not distinct")
        n_regions += len(regions)

        cone_regions = ctx.cone_regions(w)
        # w^{-1} from the reversed word, independent of the permutation
        # inverse the construction uses
        winv = element_from_word(rs, reversed(w.word))
        inv_w = inversion_set(rs, w)
        outside = frozenset(range(len(rs.positive_roots))) - inv_w
        for creg, dreg in zip(cone_regions, regions):
            _need(
                _witness_in_region(rs, inv_w, outside, creg),
                "transported witness leaves its cone cell",
            )
            back = frozenset(
                idx[act(rs, winv, rs.positive_roots[i])] for i in creg.ceiling
            )
            _need(back == dreg.ceiling, "cone ceiling does not pull back")

        if rs.rank <= MAX_ORACLE_RANK:
            oracle = dominant_sign_oracle(rs, E)
            _need(
                set(oracle) == {r.ideal for r in regions},
                "sign-assignment oracle disagrees with the ideal family",
            )
    return f"{len(ctx.W)} cones, {n_regions} regions, {n_probes} facet probes"


def check_flat_bijection(ctx: TypeContext) -> str:
    """Flats of each cone against antichains, plus the closure oracle."""
    rs = ctx.rs
    idx = root_index(rs)
    npos = len(rs.positive_roots)
    n_flats = 0
    for w in ctx.W:
        sub = ctx.sub(w)
        poset = ctx.flats(w)
        antichains = set(sub.antichains())
        _need(len(poset) == len(antichains), "flat/antichain count mismatch")
        winv = element_from_word(rs, reversed(w.word))
        inv_w = inversion_set(rs, w)
        pulled = set()
        geoms = set()
        for f in poset.flats:
            scanned = frozenset(
                g
                for g in range(npos)
                if flat_contains(f.geometry, rs.positive_roots[g], 1)
            )
            _need(scanned == f.generators, "containment scan disagrees")
            _need(not scanned & inv_w, "flat lies in a wall-separated hyperplane")
            back = frozenset(
                idx[act(rs, winv, rs.positive_roots[g])] for g in f.generators
            )
            _need(back in antichains, "pullback is not an antichain of the cone poset")
            pulled.add(back)
            geoms.add(f.geometry.rref)
        _need(len(pulled) == len(poset), "pullback map is not injective")
        _need(len(geoms) == len(poset), "flats are not geometrically distinct")
        n_flats += len(poset)

        if rs.rank <= MAX_ORACLE_RANK:
            oracle = flats_oracle(rs, w)
            key = lambda p: {
                f.geometry.rref: (f.generators, f.geometry.codim, f.mobius)
                for f in p.flats
            }
            _need(key(oracle) == key(poset), "closure oracle disagrees")
    return f"{len(ctx.W)} cones, {n_flats} flats"


def check_boolean_intervals(ctx: TypeContext) -> str:
    """Interval structure and Mobius alternation inside every cone.

    The lower interval [V, X] is the lattice of flats cut out by the
    hyperplanes containing X, so it is Boolean exactly when a flat of
    codim k lies on k hyperplanes.  These are counted geometrically
    among the poset's codim-1 flats, the hyperplanes meeting the cone.
    Every interval [X, Y] is checked to be Eulerian, with Mobius value
    (-1)^(codim Y - codim X), at every rank.
    """
    pairs = 0
    for w in ctx.W:
        poset = ctx.flats(w)
        regions = ctx.regions(w)
        _need(len(poset) == len(regions), "flat count differs from region count")
        atoms = [f.geometry for f in poset.flats if f.geometry.codim == 1]
        for f in poset.flats:
            k = f.geometry.codim
            _need(f.mobius == (-1) ** k, "Mobius value fails to alternate")
            _need(
                sum(contains_flat(a, f.geometry) for a in atoms) == k,
                "lower interval is not Boolean",
            )
        m = len(poset)
        for i in range(m):
            for j in range(m):
                if poset.leq(i, j):
                    ci = poset.flats[i].geometry.codim
                    cj = poset.flats[j].geometry.codim
                    _need(
                        poset.interval_mobius(i, j) == (-1) ** (ci + cj),
                        "interval Mobius is not Eulerian",
                    )
                    pairs += 1
    return f"{len(ctx.W)} cones checked, {pairs} interval pairs"


def check_cone_cut(ctx: TypeContext) -> str:
    """A level-1 hyperplane meets wC exactly when its root is not an
    inversion of w, checked for every (cone, root) pair.  A meeting is
    shown by a point of the hyperplane inside wC: the face point of the
    antichain {w^{-1}b} in :func:`~shicone.shi.antichain_points`, moved
    by w, once :func:`check_witness` accepts it, and otherwise a kernel
    witness.  A miss is shown by the Farkas certificate ``-d`` on the
    walls and 1 on the hyperplane, d the simple-root coordinates of
    w^{-1}b."""
    rs = ctx.rs
    faces = antichain_points(rs).face
    n = 0
    for w in ctx.W:
        inv = inversion_set(rs, w)
        walls = cone_rows(rs, w)
        winv = element_from_word(rs, reversed(w.word))
        for i, coords in enumerate(rs.positive_roots):
            rows = walls + [(coords, 1, EQ)]
            if i in inv:
                lam = [-d for d in act(rs, winv, coords)] + [1]
                ok = check_farkas(rs.rank, rows, lam)
            else:
                # winv.perm[i] indexes w^{-1}b among the signed roots
                point = faces.get(frozenset({winv.perm[i]}))
                ok = (
                    point is not None
                    and check_witness(rs.rank, rows, act_point(rs, winv, point))
                ) or feasible_rows(rs.rank, rows) is not None
            _need(ok, "cut criterion failed")
            n += 1
    return f"{n} (cone, hyperplane) pairs"


def check_antichain_independence(ctx: TypeContext) -> str:
    """Every antichain of the root poset is linearly independent."""
    rs = ctx.rs
    count = 0
    for A in ctx.rp.antichains():
        vectors = [rs.positive_roots[i] for i in A]
        _need(matrix_rank(vectors) == len(A), "dependent antichain found")
        count += 1
    return f"{count} antichains"


def check_nonnesting_injectivity(ctx: TypeContext) -> str:
    """Antichains embed injectively via their level-0 intersection."""
    rs = ctx.rs
    seen = {}
    for A in ctx.rp.antichains():
        flat = intersect_hyperplanes(
            rs.rank, [(rs.positive_roots[i], 0) for i in sorted(A)]
        )
        _need(flat is not None, "level-0 intersection empty")
        _need(flat.rref not in seen, "two antichains share a level-0 flat")
        seen[flat.rref] = A
    return f"{len(seen)} distinct flats"


def check_comparable_pair_infeasibility(ctx: TypeContext) -> str:
    """For comparable roots, both level-1 hyperplanes cannot meet the
    dominant cone simultaneously: certified by multipliers 1 and -1 on
    the two hyperplanes and ``root_j - root_i`` on the positivity rows."""
    rs, dim = ctx.rs, ctx.rs.rank
    rows0 = [(tuple(int(j == i) for j in range(dim)), 0, GT) for i in range(dim)]
    n = 0
    for i, low in enumerate(rs.positive_roots):
        for j, high in enumerate(rs.positive_roots):
            if i != j and ctx.rp.leq(i, j):
                rows = rows0 + [(low, 1, EQ), (high, 1, EQ)]
                lam = [y - x for x, y in zip(low, high)] + [1, -1]
                _need(check_farkas(rs.rank, rows, lam), "comparable pair meets the cone")
                n += 1
    return f"{n} comparable pairs"


def check_counting(ctx: TypeContext) -> str:
    """Parking-function and Catalan counts, Whitney refinements; the
    Narayana numbers are checked against the dominant cone's flats."""
    rs = ctx.rs
    num = numerology(rs)
    polys = [ctx.sub(w).antichain_polynomial() for w in ctx.W]
    total = sum(polys, IntPolynomial())
    _need(total(1) == num.parking, "total region count is not the parking number")
    _need(total.coefficient(0) == len(ctx.W), "constant term is not the group order")
    e = ctx.W[0]
    whitney = ctx.flats(e).poincare_polynomial()
    _need(whitney == num.narayana, "dominant Whitney numbers not Narayana")
    _need(polys[0](1) == num.catalan, "dominant count is not Catalan")
    # ceiling-size refinement: distribution over all cones matches the
    # summed Whitney numbers
    dist: dict = {}
    for w in ctx.W:
        for region in ctx.cone_regions(w):
            k = len(region.ceiling)
            dist[k] = dist.get(k, 0) + 1
    for k in range(total.degree + 1):
        _need(
            dist.get(k, 0) == total.coefficient(k),
            "ceiling-size distribution mismatch",
        )
    return f"sum {total}, parking {num.parking}, catalan {num.catalan}"


def check_hilbert_matches_poincare(ctx: TypeContext) -> str:
    """Hilbert series of each cone's deletion poset equals the Poincare
    polynomial sum |mu(V, X)| t^codim X of the cone's flats."""
    for w in ctx.W:
        _need(
            orderring.hilbert_series(ctx.sub(w)) == ctx.flats(w).poincare_polynomial(),
            "Hilbert series differs from Poincare polynomial",
        )
    return f"{len(ctx.W)} cones"


def check_region_ring_isomorphism(ctx: TypeContext) -> str:
    """Region ring vs order ring of the full root poset, on the dominant
    cone: the VG Heaviside values agree pointwise with ideal membership,
    and the Hilbert series of both rings, each computed by ranks on its
    own points (the regions, and the order ideals of the root poset),
    equal the Poincare polynomial of the cone's flats."""
    rs = ctx.rs
    E = tuple(range(len(rs.positive_roots)))
    e = ctx.W[0]
    regions = ctx.regions(e)
    vg = [
        sum(orderring.vg_heaviside(rs, E, r, b) << i for i, r in enumerate(regions))
        for b in E
    ]
    members = orderring.membership_masks([r.ideal for r in regions], E)
    _need(vg == members, "Heaviside values disagree")
    target = ctx.flats(e).poincare_polynomial()
    _need(
        orderring.filtered_hilbert(vg, len(regions)) == target,
        "VG ring Hilbert series differs from Poincare polynomial",
    )
    ideals = ctx.rp.order_ideals()
    _need(
        orderring.filtered_hilbert(orderring.membership_masks(ideals, E), len(ideals))
        == target,
        "order ring Hilbert series differs from Poincare polynomial",
    )
    return f"{len(regions)} regions x {len(E)} generators"


def check_antichain_recursion(ctx: TypeContext) -> str:
    """Deletion recursion for antichains and Hilbert series on the root
    poset at each maximal element."""
    rp = ctx.rp
    for k in sorted(rp.maximal_elements()):
        p1, p0 = rp.delete_split(k)
        lhs = set(rp.antichains())
        rhs = set(p1.antichains()) | {A | {k} for A in p0.antichains()}
        _need(lhs == rhs, "antichain recursion failed")
        _need(
            orderring.hilbert_series(rp)
            == orderring.hilbert_series(p1) + IntPolynomial([0, 1]) * orderring.hilbert_series(p0),
            "Hilbert recursion failed",
        )
    return f"{len(rp.maximal_elements())} maximal elements"


def check_fuss(ctx: TypeContext, m: int) -> str:
    """Extended-level dominant summary plus its internal consistency
    (region count equals the Mobius mass of the cone's flats)."""
    rs = ctx.rs
    data = fuss_dominant(rs, m)
    _need(
        data.poincare(1) == data.n_regions,
        "flat Mobius mass does not count regions",
    )
    if m == 1:
        _need(data.poincare == poincare(rs, ctx.W[0]), "level 1 is not the base case")
        _need(data.n_regions == numerology(rs).catalan, "level-1 count not Catalan")
    return (
        f"m={m}: {data.n_flats} flats vs {data.n_regions} regions, "
        f"max|mu|={data.max_abs_mobius}, poincare {data.poincare}"
    )


# -- suite runner ----------------------------------------------------------


_THEOREM_CHECKS = {
    "1": [("region_ceiling_bijection", check_region_ceiling_bijection)],
    "2": [("flat_antichain_bijection", check_flat_bijection)],
    "3": [("boolean_intervals", check_boolean_intervals)],
}

_EXTRA_CHECKS = [
    ("cone_cut_criterion", check_cone_cut),
    ("antichain_independence", check_antichain_independence),
    ("nonnesting_flat_injectivity", check_nonnesting_injectivity),
    ("comparable_pair_infeasibility", check_comparable_pair_infeasibility),
    ("counting_identities", check_counting),
    ("hilbert_matches_poincare", check_hilbert_matches_poincare),
    ("region_ring_isomorphism", check_region_ring_isomorphism),
    ("antichain_recursion", check_antichain_recursion),
]


def run_suite(rs: RootSystem, theorem: str = "all", m: int = 1) -> list:
    """Run the selected checks and return their results.

    ``theorem`` is one of '1', '2', '3', 'all'; with m > 1 it must be
    'all', since the extended-level summary replaces the base-theory
    checks (bounded to rank <= 3; bound violations raise, not skip).
    """
    if m < 1:
        raise ValueError(f"level extension requires m >= 1, got {m}")
    if theorem not in ("1", "2", "3", "all"):
        raise ValueError(f"unknown theorem selector {theorem!r}")
    if m > 1 and theorem != "all":
        raise ValueError(f"theorem selector {theorem!r} needs m = 1, got m = {m}")
    results: list[CheckResult] = []

    def run(name, fn, *args):
        start = time.perf_counter()
        try:
            details = fn(*args)
            passed = True
        except _Failure as exc:
            details = str(exc)
            passed = False
        results.append(
            CheckResult(name, passed, time.perf_counter() - start, details)
        )

    ctx = TypeContext(rs)
    if m > 1:
        run("extended_level_summary", check_fuss, ctx, m)
        return results

    selected = ["1", "2", "3"] if theorem == "all" else [theorem]
    for key in selected:
        for name, fn in _THEOREM_CHECKS[key]:
            run(name, fn, ctx)
    if theorem == "all":
        for name, fn in _EXTRA_CHECKS:
            run(name, fn, ctx)
    return results
