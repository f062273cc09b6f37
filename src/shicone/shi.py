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

Every question is settled by the first proof accepted, in one order:

- a face question (below) whose caller holds a table point asks the
  point's sign vector, :func:`_sign_vector`: the point lies on the face
  exactly when it lies in C, on 1 at the pinned roots, below 1 on the
  rest of the ideal and above 1 on the rest of E, which is
  :func:`~shicone.exactgeom.check_witness` on the face's rows;
- a root b of a region's ideal is no ceiling once a root c of the ideal
  lies above b in :func:`_pair_proofs`, whose comparable-pair
  certificates :func:`~shicone.exactgeom.check_farkas` accepts once per
  type;
- a child cell of :func:`_cells` takes its parent's point once the
  point's level vector, :func:`_level_vector`, places it in the child
  (in C, and each root of the prefix strictly inside its interval, the
  test check_witness makes on the child's rows), and is empty once
  :func:`_interval_proofs` refutes its new interval against one the
  cell holds, two-row certificates that check_farkas accepts once per
  (type, m);
- then the kernel, :func:`~shicone.exactgeom.feasible_rows`, whose
  "empty" is trusted (cell prunes at m >= 2, table and ceiling
  fallbacks).

:func:`_closure_poset` asks the kernel directly and trusts its
meets-the-region tests.

Every construction question is a face of a deletion in the dominant
cone C, posed by :func:`_face` as bitmasks of root indices (E, ideal,
pinned): a region pins no root, a facet probe one, a flat its
antichain; wC is w applied to the deletion to the
roots that w keeps positive.  An antichain's ideal in a deletion is its
ideal in the root poset cut to the deletion's roots, so the per-type
table :func:`antichain_points` answers every face and facet unmoved
(the cone-cut check of :mod:`shicone.verify` moves its points into wC).
The kernel, :func:`~shicone.exactgeom.feasible_rows`, gives the region
witnesses, the rank <= 3 oracles and any table point that is missing or
refused, so a wrong table costs kernel calls, never a wrong answer.

The constructions :func:`regions_in_dominant` and :func:`flats_in_cone`
read the cone's subposet (:func:`cone_poset`, or for a deletion the root
poset restricted to its roots), which their caller builds once; the
oracles read plain root sets, never the poset they check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import mul
from typing import Iterable, NamedTuple, Optional, Sequence

from .exactgeom import (
    EQ,
    GT,
    AffineFlat,
    as_fractions,
    check_farkas,
    feasible_rows,
    intersect_hyperplanes,
    meet,
)
from .poly import IntPolynomial
from .posets import FinitePoset, _bits
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
    unique minimum.  The flats are kept in codim order, a linear
    extension, in which each row of Mobius values is one forward pass.
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
        self._mobius_rows: list = [None] * n
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
        """Mobius function of the interval [X_i, X_j], 0 off the order.

        Row i is filled on first use, forward in index order: 0 before i,
        mu(i, i) = 1, then mu(i, k) = -sum of mu(i, h) over the h < k below k."""
        row = self._mobius_rows[i]
        if row is None:
            row = self._mobius_rows[i] = [0] * i + [1]
            for k in range(i + 1, len(self._leq)):
                between = self._leq[k] >> i << i & ~(1 << k)
                acc = sum(row[h] for h in _bits(between)) if between & 1 << i else 0
                row.append(-acc)
        return row[j]

    def poincare_polynomial(self) -> IntPolynomial:
        """Sum of |mobius| t^codim over all flats."""
        deg = max(f.geometry.codim for f in self.flats)
        cs = [0] * (deg + 1)
        for f in self.flats:
            cs[f.geometry.codim] += abs(f.mobius)
        return IntPolynomial(cs)


# -- constraint assembly ----------------------------------------------------


@lru_cache(maxsize=None)
def _positivity_rows(rank: int) -> tuple:
    """The walls x_i > 0 of C, one tuple per rank; a caller that extends
    them copies them."""
    return tuple(
        (tuple(1 if j == i else 0 for j in range(rank)), 0, GT)
        for i in range(rank)
    )


def _mask(labels: Iterable[int]) -> int:
    m = 0
    for g in labels:
        m |= 1 << g
    return m


def _face_rows(rs: RootSystem, E: int, ideal: int, pinned: int) -> list:
    """The walls of C, then for each root g of the bitmask ``E``, in index
    order, the row ``coords . x = 1`` when g is in ``pinned``, ``< 1`` in
    the rest of ``ideal``, else ``> 1``: the rows of a face question."""
    rows = list(_positivity_rows(rs.rank))
    for g in _bits(E):
        coords = rs.positive_roots[g]
        if pinned >> g & 1:
            rows.append((coords, 1, EQ))
        elif ideal >> g & 1:
            rows.append((tuple(-c for c in coords), -1, GT))
        else:
            rows.append((coords, 1, GT))
    return rows


def region_rows(rs: RootSystem, E: Iterable[int], ideal: Iterable[int]) -> list:
    """Kernel rows cutting out a dominant region of the deletion to E."""
    return _face_rows(rs, _mask(E), _mask(ideal), 0)


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


def _pair_refutes(n: int, walls: list, rows: Sequence[tuple], extra: list) -> bool:
    """Whether a row ``(a, s, kind)`` of ``extra`` and a row ``(c, t, k)``
    of ``rows`` with ``a + c <= 0`` coordinatewise and ``s + t >= 0`` have
    a certificate that :func:`check_farkas` accepts: 1 on each of the
    two rows and ``-(a + c)`` on the positivity ``walls`` sum to
    ``0 > s + t``.  Each row keeps its kind, so an extra row may be an EQ
    (a pinned root) and the certificate is made of the question's own
    rows.  Compares row vectors only.

    Proof order, as everywhere in this module: the sign-vector mask of a
    table point for a face question; the per-type pair proofs for a
    ceiling; the parent's level vector and the per-(type, m) interval
    proofs for a cell; then the kernel.  This is the prover of the
    second and third steps, run once per pair and type, never per
    question: :func:`_pair_proofs` and :func:`_interval_proofs` call it."""
    for a, s, kind in extra:
        for c, t, k in rows:
            if s + t >= 0:
                lam = [-(x + y) for x, y in zip(a, c)]
                if min(lam) >= 0 and check_farkas(
                    n, [*walls, (c, t, k), (a, s, kind)], [*lam, 1, 1]
                ):
                    return True
    return False


@lru_cache(maxsize=None)
def _sign_vector(rs: RootSystem, point: tuple) -> tuple:
    """``(below, on, above, inside)`` of an exact point ``(nums, den)``:
    bitmasks of the roots of Phi+ whose value there is below, on and
    above 1, and whether the point lies in C (n coordinates, all > 0,
    and den > 0).  Memoized per type and computed from the point itself,
    so a patched table is judged by its own points."""
    nums, den = point
    below = on = above = 0
    for g, coords in enumerate(rs.positive_roots):
        d = sum(map(mul, coords, nums)) - den
        if d < 0:
            below |= 1 << g
        elif d:
            above |= 1 << g
        else:
            on |= 1 << g
    return below, on, above, _in_cone(rs, point)


def _in_cone(rs: RootSystem, point: tuple) -> bool:
    """Whether an exact point ``(nums, den)`` lies in C: n coordinates,
    all > 0, and den > 0."""
    nums, den = point
    return len(nums) == rs.rank and den > 0 and all(x > 0 for x in nums)


def _on_face(signs: tuple, E: int, ideal: int, pinned: int) -> bool:
    """Whether a point of sign vector ``signs`` satisfies
    ``_face_rows(rs, E, ideal, pinned)``: it lies in C, on 1 at the
    pinned roots of E, below 1 on the rest of the ideal and above 1 on
    the rest of E."""
    below, on, above, inside = signs
    rest = E & ~pinned
    return inside and not (
        E & pinned & ~on or rest & ideal & ~below or rest & ~ideal & ~above
    )


def _face(rs: RootSystem, E: int, ideal: int, pinned: int, hint=None) -> Optional[tuple]:
    """A point of the face of the deletion to E in C, or None when it is
    empty; E, ``ideal`` and ``pinned`` are bitmasks of root indices.  The
    hint is returned once its sign vector places it on the face;
    otherwise the kernel answers the face's rows.

    Proof order, as everywhere in this module: the sign-vector mask of a
    table point for a face question; the per-type pair proofs for a
    ceiling; the parent's level vector and the per-(type, m) interval
    proofs for a cell; then the kernel.  A face question takes the first
    step and, failing it, the last."""
    if hint is not None and _on_face(_sign_vector(rs, hint), E, ideal, pinned):
        return hint
    return feasible_rows(rs.rank, _face_rows(rs, E, ideal, pinned))


@lru_cache(maxsize=None)
def _pair_proofs(rs: RootSystem) -> tuple:
    """``above[b]``, for each root index b, the bitmask of the roots c != b
    with ``c - b >= 0`` coordinatewise whose certificate
    :func:`check_farkas` accepts: the walls times ``c - b``, ``-c . x > -1``
    and ``b . x = 1`` sum to ``0 > 0``, so no point of C has b on its
    hyperplane and c below 1.  A root b of a region's ideal is then no
    ceiling once ``above[b]`` meets the ideal.  Proved once per type,
    by :func:`_pair_refutes` on coordinate vectors, never from the poset."""
    n, roots = rs.rank, rs.positive_roots
    walls = _positivity_rows(n)
    return tuple(
        _mask(
            g
            for g, c in enumerate(roots)
            if c != b
            and _pair_refutes(n, walls, [(tuple(-x for x in c), -1, GT)], [(b, 1, EQ)])
        )
        for b in roots
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
    below 1 and everything outside J above 1.  An antichain A of a
    deletion on the roots E is one of the root poset, with ideal J & E,
    so the deletion's face and facet rows of A are the table's with the
    rows outside E dropped: one table serves every deletion and every
    cone, unmoved.

    The table only proposes: each user passes a point as the hint of
    :func:`_face` for its own question, which judges it by its sign
    vector (the same test as check_witness on the question's rows) and
    asks the kernel when the point is missing or refused.

    Proof order, as everywhere in this module: the sign-vector mask of a
    table point for a face question; the per-type pair proofs for a
    ceiling; the parent's level vector and the per-(type, m) interval
    proofs for a cell; then the kernel.
    """
    rp = root_poset(rs)
    everything = (1 << len(rs.positive_roots)) - 1
    face, facet = {}, {}
    for A, J in zip(rp.antichains(), rp.order_ideals()):
        ideal = _mask(J)
        for b in A:
            point = _face(rs, everything, ideal, 1 << b)
            if point is not None:
                facet[A, b] = point
        point = _face(rs, everything, ideal, _mask(A))
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
    E = _mask(sub.elements)
    out = []
    for ideal, A in zip(sub.order_ideals(), sub.antichains()):
        witness = _face(rs, E, _mask(ideal), 0)
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

    A root b of the ideal is a ceiling exactly when its probe, the
    region's rows with ``b . x = 1`` pinned, is nonempty: the table's
    facet question for b with the rows outside E dropped.  The proofs
    come in order: b is no ceiling once :func:`_pair_proofs` puts a root
    of the ideal above b, a comparable-pair certificate proved once per
    type; b is a ceiling once the table point
    ``antichain_points(rs).facet[region.ceiling, b]`` lies on the probe's
    face by its sign vector; otherwise the kernel answers the probe's
    rows.

    The table is keyed by the claimed ceiling, but a point only counts
    once it lies on the probe's own face, so a wrong claim costs kernel
    calls, not a wrong answer.

    Proof order, as everywhere in this module: the sign-vector mask of a
    table point for a face question; the per-type pair proofs for a
    ceiling; the parent's level vector and the per-(type, m) interval
    proofs for a cell; then the kernel.
    """
    E, ideal = _mask(E), _mask(region.ideal)
    above = _pair_proofs(rs)
    facets = antichain_points(rs).facet
    return frozenset(
        b
        for b in _bits(ideal)
        if not above[b] & ideal
        and _face(rs, E, ideal, 1 << b, facets.get((region.ceiling, b))) is not None
    )


@lru_cache(maxsize=None)
def _interval_rows(rs: RootSystem, m: int) -> tuple:
    """``rows[i][j]``, the rows that put root i in interval j: its value
    lies in (j, j+1) for j < m and in (m, oo) for j = m."""
    out = []
    for coords in rs.positive_roots:
        neg = tuple(-c for c in coords)
        out.append(
            tuple(
                (((coords, j, GT),) if j else ())
                + (((neg, -j - 1, GT),) if j < m else ())
                for j in range(m + 1)
            )
        )
    return tuple(out)


@lru_cache(maxsize=None)
def _interval_proofs(rs: RootSystem, m: int) -> tuple:
    """``proofs[i][j]``, for root i in interval j, the bitmask of the
    (root g, interval jg), at bit ``g * (m + 1) + jg``, whose rows and
    those of (i, j) have a two-row certificate of :func:`_pair_refutes`,
    which :func:`check_farkas` accepts once per (type, m).  A cell
    holding some (g, jg) of ``proofs[i][j]`` has no child with root i in
    interval j."""
    n, rows = rs.rank, _interval_rows(rs, m)
    walls = _positivity_rows(n)
    everything = [other for per_root in rows for other in per_root]
    return tuple(
        tuple(
            _mask(
                b
                for b, other in enumerate(everything)
                if _pair_refutes(n, walls, other, extra)
            )
            for extra in per_root
        )
        for per_root in rows
    )


def _level_vector(rs: RootSystem, m: int, point: tuple) -> Optional[tuple]:
    """The interval of each root of Phi+ at an exact point ``(nums, den)``:
    j when its value lies in (j, j+1), j < m, and m when it exceeds m;
    None for a root whose value is exactly k in 1..m, in no interval.
    The whole vector is None when the point is not in C.  Computed from
    the point itself; :func:`_cells` computes it once per point and
    passes it on with the point."""
    if not _in_cone(rs, point):
        return None
    nums, den = point
    levels = []
    for coords in rs.positive_roots:
        q, r = divmod(sum(map(mul, coords, nums)), den)
        levels.append(min(q, m) if r or q > m else None)
    return tuple(levels)


def _in_cell(levels: Optional[tuple], prefix: Sequence[int], choices: tuple) -> bool:
    """Whether a point of level vector ``levels`` lies in the cell where
    root ``prefix[k]`` takes interval ``choices[k]`` for every k, the
    test :func:`~shicone.exactgeom.check_witness` makes on its rows."""
    return levels is not None and tuple(levels[g] for g in prefix) == choices


def _cells(rs: RootSystem, roots: Sequence[int], m: int) -> list:
    """Cells of the dominant cone cut by the level 1..m hyperplanes of
    ``roots``, built one root at a time in order.

    Root i takes interval j: its value lies in (j, j+1) for j < m and in
    (m, oo) for j = m.  A child of a cell, the cell's rows plus one
    interval's, takes the cell's point once its level vector places it
    in the child (:func:`_in_cell` on the whole prefix; the vector is
    computed once per point, when the kernel returns it); is empty once
    :func:`_interval_proofs` refutes its interval against one the cell
    holds, a bitmask test; and is otherwise the kernel's to answer.

    So every kernel call after the first (on the bare cone) extends a
    nonempty cell of a shorter prefix, and at m = 1 it only ever finds a
    cell.  Returns the list of ``(choices, witness)``, the witness being
    the point that admitted the cell, inside all of its rows.

    Proof order, as everywhere in this module: the sign-vector mask of a
    table point for a face question; the per-type pair proofs for a
    ceiling; the parent's level vector and the per-(type, m) interval
    proofs for a cell; then the kernel.
    """
    n = rs.rank
    intervals, proofs = _interval_rows(rs, m), _interval_proofs(rs, m)
    base = list(_positivity_rows(n))
    point = feasible_rows(n, base)
    cells = [((), base, 0, point, _level_vector(rs, m, point))]
    prefix = []
    for i in roots:
        prefix.append(i)
        grown = []
        for choices, rows, held, point, levels in cells:
            # the point lies in at most one child: the interval of root i
            # its level vector names, once the whole prefix agrees
            home = levels and levels[i]
            if home is not None and not _in_cell(levels, prefix, choices + (home,)):
                home = None
            for j, extra in enumerate(intervals[i]):
                if j == home:
                    witness, found = point, levels
                elif proofs[i][j] & held:
                    continue
                else:
                    witness = feasible_rows(n, [*rows, *extra])
                    if witness is None:
                        continue
                    found = _level_vector(rs, m, witness)
                bit = 1 << i * (m + 1) + j
                grown.append((choices + (j,), [*rows, *extra], held | bit, witness, found))
        cells = grown
    return [(choices, witness) for choices, _, _, witness, _ in cells]


def dominant_sign_oracle(rs: RootSystem, E: Iterable[int]) -> dict:
    """Dominant regions of a deletion by cell enumeration, rank <= 3 only.

    Walks the level-1 hyperplanes of E inside the dominant cone with
    :func:`_cells` at m = 1, keeping each side only while the prefix is
    shown nonempty, and returns {below-set: witness} for the cells, each
    witness inside its cell's rows.  Every side it drops holds a
    (root, interval) pair of the cell that :func:`_interval_proofs`
    refutes, a two-row certificate that :func:`check_farkas` accepted
    once per type, so the kernel is never asked about an empty one.
    Independent of the antichain route: it compares row vectors and
    never reads the root poset.

    Proof order, as everywhere in this module: the sign-vector mask of a
    table point for a face question; the per-type pair proofs for a
    ceiling; the parent's level vector and the per-(type, m) interval
    proofs for a cell; then the kernel.
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

    Both facts are proved in the dominant cone C by one point of the
    face of A in the deletion to the roots of ``sub`` (A on its
    hyperplanes, the rest of A's ideal below 1, the rest above 1, x > 0):
    ``antichain_points(rs).face[A]`` once its sign vector places it on
    that face (the mask test of :func:`_face`, equal to check_witness on
    the face's rows), and otherwise the kernel's witness of those rows.
    w is an isometry that maps C onto wC and the level-1 hyperplane of
    root i onto that of w(i), so it maps that point onto the flat of
    w(A), inside wC and off every other hyperplane of the cone.

    Proof order, as everywhere in this module: the sign-vector mask of a
    table point for a face question; the per-type pair proofs for a
    ceiling; the parent's level vector and the per-(type, m) interval
    proofs for a cell; then the kernel.
    """
    E = _mask(sub.elements)
    image = {i: _positive_image(rs, w, i) for i in sub.elements}
    faces = antichain_points(rs).face
    entries = []
    for A, J in zip(sub.antichains(), sub.order_ideals()):
        gens = frozenset(image[i] for i in A)
        planes = [(rs.positive_roots[g], 1) for g in sorted(gens)]
        geometry = intersect_hyperplanes(rs.rank, planes)
        if geometry is None or geometry.codim != len(gens):
            raise RuntimeError(
                "antichain hyperplanes are dependent; arrangement invariant violated"
            )
        if _face(rs, E, _mask(J), _mask(A), faces.get(A)) is None:
            raise RuntimeError(
                "flat does not meet its cone off the other hyperplanes; "
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
                if feasible_rows(rs.rank, [*eqs, *inside_rows]) is None:
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
    Regions are the cells of :func:`_cells` over all roots; an empty
    child that no interval proof of :func:`_interval_proofs` refutes
    (only at m >= 2) is dropped on the kernel's verdict.

    Proof order, as everywhere in this module: the sign-vector mask of a
    table point for a face question; the per-type pair proofs for a
    ceiling; the parent's level vector and the per-(type, m) interval
    proofs for a cell; then the kernel.
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
