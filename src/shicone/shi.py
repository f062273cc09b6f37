"""Shi arrangements, their deletions and extensions, inside Weyl cones.

Geometry happens in "evaluation coordinates": a point v of the ambient
space is represented by the vector x with x_i = (v, a_i), so the value
(v, beta) for a root beta with integer simple-root coordinates b is the
plain dot product b . x.  Under this linear identification the dominant
cone is the open positive orthant, every arrangement hyperplane has an
integer normal, and all feasibility questions go to
:mod:`shicone.exactgeom` with integer data.

Regions are stored combinatorially (the set of roots whose level-1
hyperplane lies above the region, plus an exact interior witness);
their geometry is recomputed from that data whenever a claim needs
re-checking.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional, Sequence

from .exactgeom import (
    EQ,
    GT,
    AffineFlat,
    as_fractions,
    contains_flat,
    feasible_rows,
    flat_contains,
    intersect_hyperplanes,
)
from .poly import IntPolynomial
from .rootsys import (
    RootSystem,
    WeylElement,
    inverse_element,
    inversion_set,
    root_poset,
)

#: Cap on brute-force oracles (sign assignments, subset enumeration).
MAX_ORACLE_RANK = 3
#: Cap on the extended-arrangement level.
MAX_FUSS_LEVEL = 3


@dataclass(frozen=True)
class ShiArrangement:
    """Reflection arrangement plus a chosen set of affine levels per root.

    ``levels[i]`` lists the integer levels k whose hyperplane
    ``{x : root_i . x = k}`` belongs to the arrangement; level 0 is
    always present (the reflection arrangement itself).
    """

    rs: RootSystem
    levels: tuple

    def __post_init__(self):
        assert len(self.levels) == len(self.rs.positive_roots)
        assert all(0 in ls for ls in self.levels)

    @classmethod
    def full(cls, rs: RootSystem) -> "ShiArrangement":
        return cls.deletion(rs, range(len(rs.positive_roots)))

    @classmethod
    def deletion(cls, rs: RootSystem, E: Iterable[int]) -> "ShiArrangement":
        keep = set(E)
        levels = tuple(
            frozenset((0, 1)) if i in keep else frozenset((0,))
            for i in range(len(rs.positive_roots))
        )
        return cls(rs, levels)

    @classmethod
    def fuss(cls, rs: RootSystem, m: int) -> "ShiArrangement":
        if m < 1:
            raise ValueError("level extension requires m >= 1")
        levels = tuple(
            frozenset(range(-m + 1, m + 1))
            for _ in range(len(rs.positive_roots))
        )
        arr = cls(rs, levels)
        if m == 1:
            assert arr == cls.full(rs)
        return arr

    def hyperplanes(self) -> list:
        """All (root_index, level) pairs, roots in index order."""
        return [
            (i, k)
            for i, ls in enumerate(self.levels)
            for k in sorted(ls)
        ]


@dataclass(frozen=True)
class ShiRegion:
    """A region inside the dominant cone of a Shi deletion.

    ``ideal`` holds the root indices whose level-1 hyperplane lies above
    the region (the root is < 1 there); it is an order ideal of the deletion
    poset.  ``ceiling`` is its set of maximal elements, the facet-defining
    level-1 hyperplanes.  ``witness`` is an exact interior point
    ``(nums, den)`` in evaluation coordinates, as the feasibility kernel
    returns it.
    """

    ideal: frozenset
    ceiling: frozenset
    witness: tuple


@dataclass(frozen=True)
class Flat:
    """An intersection of arrangement hyperplanes with its Mobius value.

    ``generators`` are the hyperplanes containing the flat: root indices
    of level-1 hyperplanes inside a cone, ``(root_index, level)`` pairs
    for whole-arrangement and extended-level flats.  ``geometry`` is the
    canonical integer form of :class:`shicone.exactgeom.AffineFlat`.
    """

    generators: frozenset
    geometry: AffineFlat
    mobius: int


class IntersectionPoset:
    """Flats ordered by reverse inclusion, with Mobius data from V down.

    ``flats[0]`` is the ambient space V, the unique minimum.  The order
    is computed geometrically from the flats' canonical reduced systems.
    """

    def __init__(self, flats: Sequence[tuple]):
        # flats: (generators frozenset, geometry AffineFlat)
        entries = sorted(flats, key=lambda f: (f[1].codim, sorted(f[0])))
        n = len(entries)
        assert n >= 1 and entries[0][1].codim == 0, "ambient space missing"
        geos = [geo for _, geo in entries]
        codims = [geo.codim for geo in geos]
        leq = [0] * n  # leq[j] = bitmask of i with X_i >= X_j (reverse incl.)
        for j in range(n):
            cj = codims[j]
            m = 0
            for i in range(n):
                if codims[i] <= cj and contains_flat(geos[i], geos[j]):
                    m |= 1 << i
            leq[j] = m
        self._leq = tuple(leq)
        self._interval_cache: dict = {}
        self.flats = tuple(
            Flat(gens, geo, self.interval_mobius(0, j))
            for j, (gens, geo) in enumerate(entries)
        )

    def __len__(self) -> int:
        return len(self.flats)

    def leq(self, i: int, j: int) -> bool:
        """Order as reverse inclusion: i <= j iff flat i contains flat j."""
        return bool(self._leq[j] & (1 << i))

    def lower_interval_size(self, j: int) -> int:
        return self._leq[j].bit_count()

    def interval_mobius(self, i: int, j: int) -> int:
        """Mobius function of the interval [X_i, X_j]."""
        if not self.leq(i, j):
            return 0
        if i == j:
            return 1
        cached = self._interval_cache.get((i, j))
        if cached is not None:
            return cached
        acc = 0
        mm = self._leq[j] & ~(1 << j)
        while mm:
            low = mm & -mm
            k = low.bit_length() - 1
            mm ^= low
            if self.leq(i, k):
                acc += self.interval_mobius(i, k)
        self._interval_cache[(i, j)] = -acc
        return -acc

    def poincare_polynomial(self) -> IntPolynomial:
        """Sum of |mobius| t^codim over all flats."""
        deg = max(f.geometry.codim for f in self.flats)
        cs = [0] * (deg + 1)
        for f in self.flats:
            cs[f.geometry.codim] += abs(f.mobius)
        return IntPolynomial(cs)


# -- constraint assembly ----------------------------------------------------


def _positivity_rows(rank: int) -> list:
    return [
        (tuple(1 if j == i else 0 for j in range(rank)), 0, GT)
        for i in range(rank)
    ]


def region_rows(rs: RootSystem, E: Iterable[int], ideal: Iterable[int]) -> list:
    """Kernel rows cutting out a dominant region of the deletion to E."""
    ideal = set(ideal)
    rows = _positivity_rows(rs.rank)
    for g in sorted(set(E)):
        coords = rs.positive_roots[g]
        if g in ideal:
            rows.append((tuple(-c for c in coords), -1, GT))
        else:
            rows.append((coords, 1, GT))
    return rows


def cone_rows(rs: RootSystem, w: WeylElement) -> list:
    """Strict rows cutting out the open cone wC (the walls are w of the
    simple roots, so there are exactly rank of them)."""
    n = rs.rank
    rows = []
    for i in range(n):
        wall = tuple(w.matrix[k][i] for k in range(n))
        rows.append((wall, 0, GT))
    return rows


def act_point(winv: WeylElement, point: tuple) -> tuple:
    """Image of an exact evaluation point ``(nums, den)`` under w, given
    ``winv`` = w^{-1} (contragredient action); the denominator is
    unchanged."""
    nums, den = point
    minv = winv.matrix
    n = len(nums)
    return (
        tuple(sum(minv[j][i] * nums[j] for j in range(n)) for i in range(n)),
        den,
    )


# -- regions ----------------------------------------------------------------


def complement_of_inversions(rs: RootSystem, w: WeylElement) -> tuple:
    """Sorted root indices of the subposet attached to the cone wC: the
    complement of Inv(w^{-1}), the roots that w keeps positive."""
    n = len(rs.positive_roots)
    return tuple(i for i in range(n) if w.perm[i] < n)


def _positive_image(rs: RootSystem, w: WeylElement, i: int) -> int:
    """Index of w(root i) for a root of the cone's subposet."""
    if w.perm[i] >= len(rs.positive_roots):
        raise RuntimeError("subposet root sent negative; arrangement invariant violated")
    return w.perm[i]


def regions_in_dominant(rs: RootSystem, E: Iterable[int]) -> list:
    """All dominant-cone regions of the deletion to E.

    One region per antichain of the deletion poset, built from the
    antichain's order ideal; the witness comes from exact feasibility
    and certifies the region is nonempty.
    """
    E = sorted(set(E))
    sub = root_poset(rs).restrict(E)
    out = []
    for A in sub.antichains():
        ideal = sub.ideal_generated(A)
        witness = feasible_rows(rs.rank, region_rows(rs, E, ideal))
        if witness is None:
            raise RuntimeError(
                "region construction produced an empty region; "
                "arrangement invariant violated"
            )
        out.append(ShiRegion(frozenset(ideal), frozenset(A), witness))
    return out


def transport_regions(
    rs: RootSystem, w: WeylElement, regions: Iterable[ShiRegion]
) -> list:
    """Map dominant regions of the deletion attached to w into wC."""
    winv = inverse_element(rs, w)
    out = []
    for region in regions:
        send = {i: _positive_image(rs, w, i) for i in region.ideal}
        out.append(
            ShiRegion(
                frozenset(send.values()),
                frozenset(send[i] for i in region.ceiling),
                act_point(winv, region.witness),
            )
        )
    return out


def regions_in_cone(rs: RootSystem, w: WeylElement) -> list:
    """Regions of the full Shi arrangement inside the cone wC.

    Computed by transporting the dominant regions of the deletion to
    the complement of Inv(w^{-1}); ideals, ceilings and witnesses are
    reported in unrotated coordinates.
    """
    E = complement_of_inversions(rs, w)
    return transport_regions(rs, w, regions_in_dominant(rs, E))


def ceiling_oracle(rs: RootSystem, E: Iterable[int], region: ShiRegion) -> frozenset:
    """Facet-defining level-1 hyperplanes of a dominant region, by
    independent feasibility tests (one per candidate root).

    A root in the region's ideal is a ceiling exactly when pinning its
    hyperplane to equality while keeping every other region constraint
    strict leaves a nonempty set.
    """
    E = sorted(set(E))
    found = []
    for b in sorted(region.ideal):
        rows = _positivity_rows(rs.rank)
        for g in E:
            coords = rs.positive_roots[g]
            if g == b:
                rows.append((coords, 1, EQ))
            elif g in region.ideal:
                rows.append((tuple(-c for c in coords), -1, GT))
            else:
                rows.append((coords, 1, GT))
        if feasible_rows(rs.rank, rows) is not None:
            found.append(b)
    return frozenset(found)


def dominant_sign_oracle(rs: RootSystem, E: Iterable[int]) -> dict:
    """Brute-force dominant regions of a deletion, rank <= 3 only.

    Tries every sign assignment to the level-1 hyperplanes of E inside
    the dominant cone and returns {below-set: witness} for the feasible
    ones.  Independent of the antichain route.
    """
    if rs.rank > MAX_ORACLE_RANK:
        raise ValueError(f"sign oracle is limited to rank <= {MAX_ORACLE_RANK}")
    E = sorted(set(E))
    out = {}
    for r in range(len(E) + 1):
        for S in combinations(E, r):
            witness = feasible_rows(rs.rank, region_rows(rs, E, S))
            if witness is not None:
                out[frozenset(S)] = witness
    return out


# -- flats -------------------------------------------------------------------


def _level_one_flat(rs: RootSystem, gens: Iterable[int]) -> AffineFlat:
    return intersect_hyperplanes(
        rs.rank, [(rs.positive_roots[g], 1) for g in sorted(gens)]
    )


def _antichain_flat_poset(
    rs: RootSystem, antichains: list, send, cone: list
) -> IntersectionPoset:
    """Shared construction: one flat per antichain, checked against a cone.

    ``send`` maps a poset element to the root index of its hyperplane.
    The Mobius function is computed by the generic recursion and asserted
    to alternate with codimension; lower intervals are asserted Boolean.
    """
    entries = []
    for A in antichains:
        gens = frozenset(send(i) for i in A)
        geometry = _level_one_flat(rs, gens)
        if geometry.is_empty or geometry.codim != len(gens):
            raise RuntimeError(
                "antichain hyperplanes are dependent; arrangement invariant violated"
            )
        eqs = [(rs.positive_roots[g], 1, EQ) for g in sorted(gens)]
        if feasible_rows(rs.rank, eqs + cone) is None:
            raise RuntimeError(
                "flat does not meet its cone; arrangement invariant violated"
            )
        entries.append((gens, geometry))
    poset = IntersectionPoset(entries)
    for j, f in enumerate(poset.flats):
        k = f.geometry.codim
        assert f.mobius == (-1) ** k, "Mobius value fails to alternate"
        assert poset.lower_interval_size(j) == 1 << k, "lower interval not Boolean"
    return poset


def flats_in_cone(rs: RootSystem, w: WeylElement) -> IntersectionPoset:
    """Intersection poset of the full Shi arrangement restricted to wC.

    One flat per antichain of the deletion poset attached to the cone,
    with generators reported in unrotated coordinates.
    """
    E = complement_of_inversions(rs, w)
    sub = root_poset(rs).restrict(E)
    send = lambda i: _positive_image(rs, w, i)
    return _antichain_flat_poset(rs, sub.antichains(), send, cone_rows(rs, w))


def flats_in_dominant(rs: RootSystem, E: Iterable[int]) -> IntersectionPoset:
    """Intersection poset of the deletion to E inside the dominant cone."""
    sub = root_poset(rs).restrict(sorted(set(E)))
    return _antichain_flat_poset(
        rs, sub.antichains(), lambda i: i, _positivity_rows(rs.rank)
    )


def flats_oracle(rs: RootSystem, w: WeylElement) -> IntersectionPoset:
    """Brute-force flats of the Shi arrangement meeting wC, rank <= 3.

    Enumerates all subsets of the level-1 hyperplanes available to the
    cone, deduplicates intersections geometrically, keeps those meeting
    the open cone, and recomputes generator sets by containment scans.
    No antichain structure is assumed anywhere.
    """
    if rs.rank > MAX_ORACLE_RANK:
        raise ValueError(f"flat oracle is limited to rank <= {MAX_ORACLE_RANK}")
    avail = sorted(
        set(range(len(rs.positive_roots))) - inversion_set(rs, w)
    )
    cone = cone_rows(rs, w)
    seen = {}
    for r in range(len(avail) + 1):
        for S in combinations(avail, r):
            geometry = _level_one_flat(rs, S)
            if geometry.is_empty or geometry.rref in seen:
                continue
            eqs = [(rs.positive_roots[g], 1, EQ) for g in S]
            if feasible_rows(rs.rank, eqs + cone) is None:
                continue
            seen[geometry.rref] = geometry
    entries = []
    for geometry in seen.values():
        gens = frozenset(
            g
            for g in range(len(rs.positive_roots))
            if flat_contains(geometry, rs.positive_roots[g], 1)
        )
        entries.append((gens, geometry))
    return IntersectionPoset(entries)


def poincare(rs: RootSystem, w: WeylElement) -> IntPolynomial:
    """Poincare polynomial of the cone wC: its k-th coefficient counts
    the size-k antichains of the deletion poset attached to the cone."""
    E = complement_of_inversions(rs, w)
    return root_poset(rs).restrict(E).antichain_polynomial()


# -- whole-arrangement and extended-level computations -----------------------


def _closure_poset(
    rs: RootSystem,
    hyperplanes: Sequence[tuple],
    inside_rows: Optional[list] = None,
) -> IntersectionPoset:
    """Intersection poset of all intersections of the hyperplanes, found
    by incremental closure.

    ``hyperplanes`` are (root_index, level) pairs, and each flat is
    generated by those that contain it.  With ``inside_rows`` given, only
    flats meeting that open region are kept; every flat meeting it arises
    through intermediate intersections that also meet it, so the filtered
    closure is still complete.
    """
    ambient = intersect_hyperplanes(rs.rank, [])
    flats = {ambient.rref: ambient}
    frontier = [ambient]
    planes = [(rs.positive_roots[i], k) for i, k in hyperplanes]
    while frontier:
        nxt = []
        for x in frontier:
            rows = [(r[:-1], r[-1]) for r in x.rref]
            for normal, level in planes:
                if flat_contains(x, normal, level):
                    continue
                y = intersect_hyperplanes(rs.rank, rows + [(normal, level)])
                if y.is_empty or y.rref in flats:
                    continue
                if inside_rows is not None:
                    eqs = [(r[:-1], r[-1], EQ) for r in y.rref]
                    if feasible_rows(rs.rank, eqs + inside_rows) is None:
                        continue
                flats[y.rref] = y
                nxt.append(y)
        frontier = nxt
    entries = []
    for y in flats.values():
        gens = frozenset(
            (i, k) for i, k in hyperplanes if flat_contains(y, rs.positive_roots[i], k)
        )
        entries.append((gens, y))
    return IntersectionPoset(entries)


def full_arrangement_poincare(rs: RootSystem) -> IntPolynomial:
    """Poincare polynomial of the whole Shi arrangement, rank <= 3.

    Built from the full intersection poset with the generic Mobius
    recursion; unlike inside a single cone, lower intervals here need
    not be Boolean.
    """
    if rs.rank > MAX_ORACLE_RANK:
        raise ValueError(
            f"full-arrangement recursion is limited to rank <= {MAX_ORACLE_RANK}"
        )
    poset = _closure_poset(rs, ShiArrangement.full(rs).hyperplanes())
    return poset.poincare_polynomial()


@dataclass(frozen=True)
class FussDominant:
    poincare: IntPolynomial
    n_flats: int
    n_regions: int
    max_abs_mobius: int
    abs_mobius_counts: tuple  # sorted (|mu| value, multiplicity) pairs


def fuss_dominant(rs: RootSystem, m: int) -> FussDominant:
    """Dominant-cone data of the level-m extended Shi arrangement.

    Flats come from closure over the level 1..m hyperplanes (negative
    levels cannot meet the dominant cone); comparability pruning is
    deliberately absent because distinct levels of comparable roots can
    meet inside the cone, and the Mobius recursion is run in full.
    Regions are counted by feasibility over level-interval assignments.
    """
    if rs.rank > MAX_ORACLE_RANK:
        raise ValueError(
            f"extended-level computation is limited to rank <= {MAX_ORACLE_RANK}"
        )
    if not 1 <= m <= MAX_FUSS_LEVEL:
        raise ValueError(f"level extension must satisfy 1 <= m <= {MAX_FUSS_LEVEL}")
    positive = _positivity_rows(rs.rank)
    hyperplanes = [
        (i, k) for i, k in ShiArrangement.fuss(rs, m).hyperplanes() if k >= 1
    ]
    poset = _closure_poset(rs, hyperplanes, inside_rows=positive)

    # Region count: for each root, its value lies in one of the open
    # intervals (0,1), ..., (m-1,m), (m,oo); depth-first over roots with
    # feasibility pruning.
    n = rs.rank
    roots = rs.positive_roots
    count = 0

    def extend(i: int, rows: list) -> None:
        nonlocal count
        if i == len(roots):
            count += 1
            return
        coords = roots[i]
        neg = tuple(-c for c in coords)
        for j in range(m + 1):
            extra = [(coords, j, GT)] if j else []
            if j < m:
                extra.append((neg, -(j + 1), GT))
            if feasible_rows(n, rows + extra) is not None:
                extend(i + 1, rows + extra)

    extend(0, list(positive))
    dist: dict = {}
    for f in poset.flats:
        dist[abs(f.mobius)] = dist.get(abs(f.mobius), 0) + 1
    return FussDominant(
        poset.poincare_polynomial(),
        len(poset),
        count,
        max(dist),
        tuple(sorted(dist.items())),
    )


# -- reports ------------------------------------------------------------------


def _root_list(rs: RootSystem, idxs: Iterable[int]) -> list:
    return [list(rs.positive_roots[i]) for i in sorted(idxs)]


def _report_body(rs: RootSystem, regions: list, poset, poly) -> dict:
    """The regions, flats and Poincare polynomial shared by the reports;
    witness coordinates are printed as exact fractions."""
    assert len(poset) == len(regions) == poly(1)
    return {
        "regions": [
            {
                "ideal": _root_list(rs, r.ideal),
                "ceiling": _root_list(rs, r.ceiling),
                "witness": [str(x) for x in as_fractions(r.witness)],
            }
            for r in regions
        ],
        "flats": [
            {
                "generators": _root_list(rs, f.generators),
                "codim": f.geometry.codim,
                "mobius": f.mobius,
            }
            for f in poset.flats
        ],
        "poincare": list(poly),
    }


def cone_report(rs: RootSystem, w: WeylElement) -> dict:
    """JSON-ready summary of one cone: regions, flats, Poincare data."""
    inv = inversion_set(rs, w)
    return {
        "word": "".join(str(i + 1) for i in w.word),
        "length": len(inv),
        "inversions": _root_list(rs, inv),
        **_report_body(
            rs, regions_in_cone(rs, w), flats_in_cone(rs, w), poincare(rs, w)
        ),
    }


def deletion_report(rs: RootSystem, E: Iterable[int]) -> dict:
    """JSON-ready summary of the deletion to E inside the dominant cone."""
    E = sorted(set(E))
    return {
        "e_indices": E,
        "e_roots": _root_list(rs, E),
        **_report_body(
            rs,
            regions_in_dominant(rs, E),
            flats_in_dominant(rs, E),
            root_poset(rs).restrict(E).antichain_polynomial(),
        ),
    }
