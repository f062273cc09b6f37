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

Every "this set is nonempty" answer is an exact point accepted by
:func:`~shicone.exactgeom.check_witness`, and every "empty" answer is a
Farkas certificate accepted by :func:`~shicone.exactgeom.check_farkas`
or the kernel's verdict.  The points come from one of two sources:

* the per-type table :func:`antichain_points`, whose points depend only
  on an antichain of the root poset, for the facet probes of
  :func:`ceiling_oracle` and the flat-meets-cone tests of the flat
  builder (and the cone-cut check in :mod:`shicone.verify`);
* the kernel, through :func:`~shicone.exactgeom.feasible_rows`, for the
  region witnesses, the rank <= 3 oracles, and any table point that is
  missing or that the checker refuses.

So a wrong table costs kernel calls, never a wrong answer.

The constructions :func:`regions_in_dominant` and :func:`flats_in_cone`
read the cone's subposet (:func:`cone_poset`, or for a deletion the root
poset restricted to its roots), which their caller builds once; the
oracles read plain root sets, never the poset they check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple, Optional, Sequence

from .exactgeom import (
    EQ,
    GT,
    AffineFlat,
    as_fractions,
    check_farkas,
    check_witness,
    feasible_rows,
    flat_contains,
    intersect_hyperplanes,
    meet,
)
from .poly import IntPolynomial
from .posets import FinitePoset
from .rootsys import (
    RootSystem,
    WeylElement,
    element_from_word,
    inverse_element,
    inversion_set,
    root_poset,
    signed_roots,
)

#: Rank cap on the cell and closure oracles and on the whole-arrangement
#: and extended-level computations, which search cells and flats directly
#: instead of reading the root poset.
MAX_ORACLE_RANK = 3
#: Cap on the extended-arrangement level.
MAX_FUSS_LEVEL = 3


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

    Each flat comes as ``(generators, geometry)``, and its generators
    must be every hyperplane of the arrangement that contains it.  Then
    flat i contains flat j exactly when the generators of i are a subset
    of those of j, so the order is read off the generator sets and no
    geometry is consulted.  ``flats[0]`` is the ambient space V, the
    unique minimum.
    """

    def __init__(self, flats: Sequence[tuple]):
        # flats: (generators frozenset, geometry AffineFlat)
        entries = sorted(flats, key=lambda f: (f[1].codim, sorted(f[0])))
        n = len(entries)
        assert n >= 1 and entries[0][1].codim == 0, "ambient space missing"
        gens = [g for g, _ in entries]
        # leq[j] = bitmask of i with X_i >= X_j (reverse inclusion)
        self._leq = tuple(
            sum(1 << i for i in range(n) if gens[i] <= gj) for gj in gens
        )
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
    """Strict rows cutting out the open cone wC: wall i is w(a_i), and
    the simple root a_i has signed-root index n-1-i."""
    roots, n = signed_roots(rs), rs.rank
    return [(roots[w.perm[n - 1 - i]], 0, GT) for i in range(n)]


def act_point(rs: RootSystem, winv: WeylElement, point: tuple) -> tuple:
    """Image of an exact evaluation point ``(nums, den)`` under w, given
    ``winv`` = w^{-1}: coordinate i is (w v, a_i) = (v, w^{-1}(a_i)), the
    value of the root w^{-1}(a_i) at the point.  The denominator is
    unchanged."""
    nums, den = point
    roots, n = signed_roots(rs), rs.rank
    return (
        tuple(
            sum(c * x for c, x in zip(roots[winv.perm[n - 1 - i]], nums))
            for i in range(n)
        ),
        den,
    )


class AntichainPoints(NamedTuple):
    """Dominant-cone points of one type, keyed by antichains of its root
    poset: ``face[A]`` and ``facet[A, b]`` for b in A are exact points
    ``(nums, den)``; see :func:`antichain_points`."""

    face: dict
    facet: dict


@lru_cache(maxsize=None)
def antichain_points(rs: RootSystem) -> AntichainPoints:
    """The point table of a type, built by the kernel on first use.

    For an antichain A of the root poset with order ideal J, the face
    point has a . x = 1 on A, b . x < 1 on J - A, c . x > 1 outside J
    and x > 0; the facet point of b in A has b . x = 1, the rest of J
    below 1 and everything outside J above 1.  An antichain of a cone's
    subposet is an antichain of the root poset, so one table serves every
    cone: the facet point of (A, b) lies in a probe of
    :func:`ceiling_oracle` for a region with ceiling A, and the face
    point of A, moved by w with :func:`act_point`, lies on the flat of A
    in wC and inside the cone.

    The table only proposes: each user checks a point against the exact
    rows of its own question with :func:`check_witness` and asks the
    kernel when the point is missing or refused.
    """
    rp = root_poset(rs)
    n = rs.rank
    face, facet = {}, {}
    for A, J in zip(rp.antichains(), rp.order_ideals()):
        rows = region_rows(rs, range(len(rs.positive_roots)), J)
        pinned = rows.copy()
        for b in A:
            # row n + b is root b's: region_rows lists the roots in order
            probe = rows.copy()
            probe[n + b] = pinned[n + b] = (rs.positive_roots[b], 1, EQ)
            point = feasible_rows(n, probe)
            if point is not None:
                facet[A, b] = point
        point = feasible_rows(n, pinned)
        if point is not None:
            face[A] = point
    return AntichainPoints(face, facet)


# -- regions ----------------------------------------------------------------


def complement_of_inversions(rs: RootSystem, w: WeylElement) -> tuple:
    """Sorted root indices of the roots that w keeps positive,
    Phi+ - Inv(w): the elements of the subposet attached to the cone wC."""
    n = len(rs.positive_roots)
    return tuple(i for i in range(n) if w.perm[i] < n)


def cone_poset(rs: RootSystem, w: WeylElement) -> FinitePoset:
    """The subposet of the root poset attached to the cone wC, on the
    roots that w keeps positive.  Its antichains index the regions of
    the Shi arrangement in wC and the flats that meet it."""
    return root_poset(rs).restrict(complement_of_inversions(rs, w))


def _positive_image(rs: RootSystem, w: WeylElement, i: int) -> int:
    """Index of w(root i) for a root of the cone's subposet."""
    if w.perm[i] >= len(rs.positive_roots):
        raise RuntimeError("subposet root sent negative; arrangement invariant violated")
    return w.perm[i]


def regions_in_dominant(rs: RootSystem, sub: FinitePoset) -> list:
    """All dominant-cone regions of the deletion to the roots of ``sub``,
    the deletion poset: the root poset restricted to those roots.

    One region per antichain A of ``sub``, with ceiling A and ideal the
    order ideal of A (``order_ideals`` lists them in the order of
    ``antichains``); the witness comes from exact feasibility and
    certifies the region is nonempty.
    """
    E = sub.elements
    out = []
    for ideal, A in zip(sub.order_ideals(), sub.antichains()):
        witness = feasible_rows(rs.rank, region_rows(rs, E, ideal))
        if witness is None:
            raise RuntimeError(
                "region construction produced an empty region; "
                "arrangement invariant violated"
            )
        out.append(ShiRegion(ideal, A, witness))
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
                act_point(rs, winv, region.witness),
            )
        )
    return out


def regions_in_cone(rs: RootSystem, w: WeylElement) -> list:
    """Regions of the full Shi arrangement inside the cone wC.

    Computed by transporting the dominant regions of the deletion to
    the roots that w keeps positive, Phi+ - Inv(w); ideals, ceilings and
    witnesses are reported in unrotated coordinates.
    """
    return transport_regions(rs, w, regions_in_dominant(rs, cone_poset(rs, w)))


def ceiling_oracle(rs: RootSystem, E: Iterable[int], region: ShiRegion) -> frozenset:
    """Facet-defining level-1 hyperplanes of a dominant region, by one
    independent probe per root of its ideal.

    A root b of the ideal is a ceiling exactly when pinning its
    hyperplane to equality, ``b . x = 1``, while keeping every other
    region row strict leaves a nonempty set.  Each probe is settled by
    the first of three proofs that is accepted:

    * the table point ``antichain_points(rs).facet[region.ceiling, b]``,
      which :func:`check_witness` must accept on the probe's rows (it
      shows the set nonempty);
    * a dominance certificate that the set is empty: a row
      ``-c . x > -1`` with ``c - b >= 0`` coordinatewise.  With
      multiplier 1 on it and on the pinned row, and ``c - b`` on the
      positivity rows, the rows sum to ``0 > 0``, which
      :func:`check_farkas` must accept;
    * the kernel's answer.

    The table is keyed by the claimed ceiling, but a point only counts
    once it satisfies the probe's own rows, so a wrong claim costs
    kernel calls, not a wrong answer.
    """
    n = rs.rank
    E = sorted(set(E))
    base = region_rows(rs, E, region.ideal)
    pos = {g: n + i for i, g in enumerate(E)}
    upper = [
        (j, coeffs)
        for j, (coeffs, rhs, kind) in enumerate(base)
        if kind == GT and rhs == -1
    ]
    facets = antichain_points(rs).facet
    found = []
    for b in sorted(region.ideal):
        k = pos[b]
        coords = rs.positive_roots[b]
        rows = base.copy()
        rows[k] = (coords, 1, EQ)
        point = facets.get((region.ceiling, b))
        if point is not None and check_witness(n, rows, point):
            found.append(b)
            continue
        lam = None
        for j, coeffs in upper:
            if j != k and all(x + y <= 0 for x, y in zip(coords, coeffs)):
                lam = [-(x + y) for x, y in zip(coords, coeffs)] + [0] * len(E)
                lam[j] = lam[k] = 1
                break
        if lam is not None and check_farkas(n, rows, lam):
            continue
        if feasible_rows(n, rows) is not None:
            found.append(b)
    return frozenset(found)


def _cells(rs: RootSystem, roots: Sequence[int], m: int) -> list:
    """Cells of the dominant cone cut by the level 1..m hyperplanes of
    ``roots``, built one root at a time in order.

    Root i takes interval j: its value lies in (j, j+1) for j < m and in
    (m, oo) for j = m.  A cell is extended by each interval the kernel
    finds feasible, so every kernel call after the first (on the bare
    cone) extends a nonempty cell of a shorter prefix.  Returns the list
    of ``(choices, witness)``, the witness being the kernel answer that
    admitted the last root.
    """
    n = rs.rank
    base = _positivity_rows(n)
    cells = [((), base, feasible_rows(n, base))]
    for i in roots:
        coords = rs.positive_roots[i]
        neg = tuple(-c for c in coords)
        intervals = [
            ([(coords, j, GT)] if j else []) + ([(neg, -j - 1, GT)] if j < m else [])
            for j in range(m + 1)
        ]
        grown = []
        for choices, rows, _ in cells:
            for j, extra in enumerate(intervals):
                nxt = rows + extra
                witness = feasible_rows(n, nxt)
                if witness is not None:
                    grown.append((choices + (j,), nxt, witness))
        cells = grown
    return [(choices, witness) for choices, _, witness in cells]


def dominant_sign_oracle(rs: RootSystem, E: Iterable[int]) -> dict:
    """Dominant regions of a deletion by cell enumeration, rank <= 3 only.

    Walks the level-1 hyperplanes of E inside the dominant cone, keeping
    each side only while the kernel finds the prefix feasible, and
    returns {below-set: witness} for the cells.  Independent of the
    antichain route.
    """
    if rs.rank > MAX_ORACLE_RANK:
        raise ValueError(f"sign oracle is limited to rank <= {MAX_ORACLE_RANK}")
    E = sorted(set(E))
    return {
        frozenset(g for g, j in zip(E, choices) if j == 0): witness
        for choices, witness in _cells(rs, E, 1)
    }


# -- flats -------------------------------------------------------------------


def flats_in_cone(rs: RootSystem, sub: FinitePoset, w: WeylElement) -> IntersectionPoset:
    """Intersection poset, inside the cone wC, of the level-1 hyperplanes
    of the roots w(i) for i in ``sub``: one flat per antichain of
    ``sub``, with generators reported in unrotated coordinates.  ``sub``
    is :func:`cone_poset` for the full Shi arrangement; with w the
    identity, any restriction of the root poset gives a deletion inside
    the dominant cone.

    Element i stands for the hyperplane of the root w(i).  Each flat must
    meet the cone and lie on no hyperplane of ``sub`` outside its own
    antichain.  So its generators are complete, as
    :class:`IntersectionPoset` requires, and the lower interval of a flat
    of codim k is the Boolean lattice of its antichain's 2^k subsets.

    That a flat meets the cone is shown by a point on it inside wC: the
    face point ``antichain_points(rs).face[A]`` moved by w, once
    :func:`check_witness` accepts it on the flat's equalities and the
    cone's walls, and otherwise the kernel's witness.
    """
    image = {i: _positive_image(rs, w, i) for i in sub.elements}
    cone = cone_rows(rs, w)
    faces = antichain_points(rs).face
    winv = inverse_element(rs, w)
    entries = []
    for A in sub.antichains():
        gens = frozenset(image[i] for i in A)
        planes = [(rs.positive_roots[g], 1) for g in sorted(gens)]
        geometry = intersect_hyperplanes(rs.rank, planes)
        if geometry is None or geometry.codim != len(gens):
            raise RuntimeError(
                "antichain hyperplanes are dependent; arrangement invariant violated"
            )
        rows = [(normal, level, EQ) for normal, level in planes] + cone
        point = faces.get(A)
        met = point is not None and check_witness(rs.rank, rows, act_point(rs, winv, point))
        if not met and feasible_rows(rs.rank, rows) is None:
            raise RuntimeError(
                "flat does not meet its cone; arrangement invariant violated"
            )
        if any(
            g not in gens and flat_contains(geometry, rs.positive_roots[g], 1)
            for g in image.values()
        ):
            raise RuntimeError(
                "flat lies on a hyperplane outside its antichain; "
                "arrangement invariant violated"
            )
        entries.append((gens, geometry))
    return IntersectionPoset(entries)


def flats_oracle(rs: RootSystem, w: WeylElement) -> IntersectionPoset:
    """Flats of the Shi arrangement meeting wC by closure, rank <= 3.

    Closes the level-1 hyperplanes of the roots outside
    ``inversion_set(rs, w)`` under intersection, keeping the flats that
    meet the open cone, and labels each flat by the root indices of the
    hyperplanes containing it.  No antichain structure is assumed
    anywhere.
    """
    if rs.rank > MAX_ORACLE_RANK:
        raise ValueError(f"flat oracle is limited to rank <= {MAX_ORACLE_RANK}")
    inv = inversion_set(rs, w)
    planes = {
        g: (coords, 1)
        for g, coords in enumerate(rs.positive_roots)
        if g not in inv
    }
    return _closure_poset(rs, planes, inside_rows=cone_rows(rs, w))


def poincare(rs: RootSystem, w: WeylElement) -> IntPolynomial:
    """Poincare polynomial of the cone wC: its k-th coefficient counts
    the size-k antichains of the cone's subposet."""
    return cone_poset(rs, w).antichain_polynomial()


# -- whole-arrangement and extended-level computations -----------------------


def _closure_poset(
    rs: RootSystem,
    planes: dict,
    inside_rows: Optional[list] = None,
) -> IntersectionPoset:
    """Intersection poset of all intersections of the hyperplanes, built
    by inserting them one at a time in ``planes`` order.

    ``planes`` maps a generator label to a hyperplane ``(normal, level)``.
    Inserting H visits each flat X found so far once, with one
    :func:`~shicone.exactgeom.meet` of X's reduced rows and H: H joins
    the generators of X when it contains X; otherwise a nonempty new
    flat Y = X & H starts with the generators of X plus H.  With
    ``inside_rows`` given, only flats meeting that open region are kept
    (a flat meeting it lies in flats that meet it), and a flat missing
    it is recorded by its rref as None, so each distinct flat goes to
    the kernel at most once.

    Completeness: after H_1..H_k, every nonempty intersection of some of
    them that meets the region is found, with all of H_1..H_k containing
    it.  A new Y = X & H_k lies on no earlier H outside the generators of
    X, since X & H would equal Y and would have been found earlier.
    """
    ambient = AffineFlat(rs.rank, (), ())
    found = {ambient.rref: (set(), ambient)}
    for label, (normal, level) in planes.items():
        for entry in list(found.values()):
            if entry is None:
                continue
            xgens, x = entry
            y = meet(x, normal, level)
            if y is x:
                xgens.add(label)
                continue
            if y is None or y.rref in found:
                continue
            if inside_rows is not None:
                eqs = [(r[:-1], r[-1], EQ) for r in y.rref]
                if feasible_rows(rs.rank, eqs + inside_rows) is None:
                    found[y.rref] = None
                    continue
            found[y.rref] = (xgens | {label}, y)
    return IntersectionPoset(
        [(frozenset(e[0]), e[1]) for e in found.values() if e is not None]
    )


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
    planes = {
        (i, k): (coords, k)
        for i, coords in enumerate(rs.positive_roots)
        for k in (0, 1)
    }
    return _closure_poset(rs, planes).poincare_polynomial()


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
    Regions are the cells of :func:`_cells` over all roots.
    """
    if rs.rank > MAX_ORACLE_RANK:
        raise ValueError(
            f"extended-level computation is limited to rank <= {MAX_ORACLE_RANK}"
        )
    if not 1 <= m <= MAX_FUSS_LEVEL:
        raise ValueError(f"level extension must satisfy 1 <= m <= {MAX_FUSS_LEVEL}")
    planes = {
        (i, k): (coords, k)
        for i, coords in enumerate(rs.positive_roots)
        for k in range(1, m + 1)
    }
    poset = _closure_poset(rs, planes, inside_rows=_positivity_rows(rs.rank))
    count = len(_cells(rs, range(len(rs.positive_roots)), m))
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
    """JSON-ready summary of one cone: regions, flats, Poincare data, all
    read from one restriction of the root poset."""
    inv = inversion_set(rs, w)
    sub = cone_poset(rs, w)
    return {
        "word": "".join(str(i + 1) for i in w.word),
        "length": len(inv),
        "inversions": _root_list(rs, inv),
        **_report_body(
            rs,
            transport_regions(rs, w, regions_in_dominant(rs, sub)),
            flats_in_cone(rs, sub, w),
            sub.antichain_polynomial(),
        ),
    }


def deletion_report(rs: RootSystem, E: Iterable[int]) -> dict:
    """JSON-ready summary of the deletion to E inside the dominant cone."""
    E = sorted(set(E))
    sub = root_poset(rs).restrict(E)
    return {
        "e_indices": E,
        "e_roots": _root_list(rs, E),
        **_report_body(
            rs,
            regions_in_dominant(rs, sub),
            flats_in_cone(rs, sub, element_from_word(rs, ())),
            sub.antichain_polynomial(),
        ),
    }
