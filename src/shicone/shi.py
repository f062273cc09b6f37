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

Every question asks, of some roots, which *state* each takes at level
m inside the dominant cone C.  State s <= m is an interval: the root's
value lies in (s, s + 1) for s < m and in (m, oo) for s = m.  State
s > m is the exact level s - m.  At m = 1 the three states are below,
above and on 1.  A question is a tuple ``held`` of bitmasks of root
indices, ``held[s]`` the roots it puts in state s, and its rows are the
walls of C plus :func:`_state_rows` of each held root in index order,
all written by :func:`_question_rows`.  Three proofs settle it, tried
in this order, though not every caller asks all three:

- a point the caller holds answers it once :func:`_holds` accepts the
  point's :func:`_signature`, the same masks read off the point (None
  outside C); this is the test
  :func:`~shicone.exactgeom.check_witness` makes on the question's rows;
- it is empty once :func:`_state_proofs` refutes two of its (root,
  state) pairs, by two-row certificates that
  :func:`~shicone.exactgeom.check_farkas` accepts once per (type, m);
- the kernel, :func:`~shicone.exactgeom.feasible_rows`, answers its
  rows, and its "empty" is trusted (cell prunes at m >= 2, table and
  ceiling fallbacks).

:func:`_face` asks no certificate: the point table goes to the kernel,
region witnesses go to it on their ceiling and floor rows alone and are
then judged on the region's whole question by :func:`_holds`, and flats
and facet probes try their table point first.  Only the region floors
of :func:`regions_in_dominant`, :func:`ceiling_oracle`'s probes and the
children of :func:`_cells` read :func:`_state_proofs`.
:func:`_closure_poset` asks the kernel directly and trusts its
meets-the-region tests.

Every construction question is a face of a deletion in C, asked at m = 1
by :func:`_face` from bitmasks of root indices (E, ideal, pinned): a
region pins no root (and asks the deletion to its ceiling and floor,
whose rows imply the rest of E's), a facet probe one, a flat its
antichain; wC is w applied to the deletion to the roots that w keeps
positive.  The cells of :func:`_cells` ask at level m.  Each writes its
rows from the ``held`` it judges points by.  The sign oracle walks the
cells of the whole arrangement once per type (:func:`_dominant_cells`)
and answers each deletion by projecting them, since a deletion's regions
are unions of the whole arrangement's.  A deletion poset is
induced, so :func:`antichain_table` lists its antichains and ideals:
:func:`regions_in_dominant` and :func:`flats_in_cone` take E and read no
poset, and :func:`antichain_points` answers every face and facet unmoved
(the cone-cut check of :mod:`shicone.verify` moves its points into wC).
The kernel gives the region witnesses, the two oracles and any table
point that is missing or refused, so a wrong table costs calls, not
answers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import mul, or_
from typing import Iterable, NamedTuple, Optional, Sequence

from .exactgeom import (
    EQ,
    GT,
    MAX_DIM,
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

#: Rank cap on the whole-arrangement and extended-level computations,
#: which search cells and flats without reading the root poset, and the
#: highest rank at which :mod:`shicone.verify`'s flat check runs the
#: closure oracle.  The oracles run at any rank the kernel accepts, and
#: the region check runs the sign oracle at every rank.
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


#: The states at m = 1: below, above and on 1.
_BELOW, _ABOVE, _ON = 0, 1, 2


@lru_cache(maxsize=None)
def _state_rows(rs: RootSystem, m: int) -> tuple:
    """``rows[g][s]``, the rows that put root g in state s at level m:
    ``coords . x > s`` for 0 < s <= m and ``-coords . x > -s - 1`` for
    s < m (the interval s), ``coords . x = s - m`` for s > m."""
    out = []
    for coords in rs.positive_roots:
        neg = tuple(-c for c in coords)
        out.append(
            tuple(
                (((coords, s, GT),) if s else ())
                + (((neg, -s - 1, GT),) if s < m else ())
                for s in range(m + 1)
            )
            + tuple(((coords, k, EQ),) for k in range(1, m + 1))
        )
    return tuple(out)


def _question_rows(rs: RootSystem, m: int, held: tuple) -> list:
    """The rows of the question ``held`` at level m: the walls of C, then
    for each held root, in index order, its :func:`_state_rows` entry for
    the state s whose mask ``held[s]`` holds it."""
    states = _state_rows(rs, m)
    rows = list(_positivity_rows(rs.rank))
    rest = reduce(or_, held)
    while rest:
        low = rest & -rest
        s = 0
        while not held[s] & low:
            s += 1
        rows += states[low.bit_length() - 1][s]
        rest ^= low
    return rows


def region_rows(rs: RootSystem, E: Iterable[int], ideal: Iterable[int]) -> list:
    """Kernel rows cutting out a dominant region of the deletion to E."""
    E, ideal = _mask(E), _mask(ideal)
    return _question_rows(rs, 1, (E & ideal, E & ~ideal, 0))


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


@lru_cache(maxsize=None)
def _signature(rs: RootSystem, m: int, point: tuple) -> Optional[tuple]:
    """The question an exact point ``(nums, den)`` answers at level m:
    ``masks[s]``, for each state s, the roots of Phi+ in state s there;
    None when the point is not in C (n coordinates, all > 0, den > 0).
    Memoized per (type, m, point) and computed from the point itself, so
    a patched table is judged by its own points."""
    nums, den = point
    if len(nums) != rs.rank or den <= 0 or min(nums) <= 0:
        return None
    masks = [0] * (2 * m + 1)
    for g, coords in enumerate(rs.positive_roots):
        q, r = divmod(sum(map(mul, coords, nums)), den)
        masks[m + q if not r and q <= m else min(q, m)] |= 1 << g
    return tuple(masks)


def _holds(signature: Optional[tuple], held: tuple) -> bool:
    """Whether a point of ``signature`` answers the question ``held``: it
    lies in C and each root of ``held[s]`` is in state s there, the test
    :func:`~shicone.exactgeom.check_witness` makes on the question's
    rows."""
    return signature is not None and not any(
        h & ~s for h, s in zip(held, signature)
    )


def _pair_refutes(n: int, walls: list, rows: Sequence[tuple], extra: list) -> bool:
    """Whether a row ``(a, s, kind)`` of ``extra`` and a row ``(c, t, k)``
    of ``rows`` with ``a + c <= 0`` coordinatewise and ``s + t >= 0`` have
    a certificate that :func:`check_farkas` accepts: 1 on each of the
    two rows and ``-(a + c)`` on the positivity ``walls`` sum to
    ``0 > s + t``.  Each row keeps its kind, so an exact state's row
    stays an EQ and the certificate is made of the question's own rows.
    Compares row vectors only; :func:`_state_proofs` runs it once per
    pair of states and type, never per question."""
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
def _state_proofs(rs: RootSystem, m: int) -> tuple:
    """``proofs[g][s][t]``, the bitmask of the roots c such that root g in
    state s and root c in interval t <= m (the only states its readers
    hold c in) have a two-row certificate of :func:`_pair_refutes`, which
    :func:`check_farkas` accepts once per (type, m).  No question holding
    both pairs has a point.  The certificates come from coordinate
    vectors, never from the poset: g with a lower bound l (interval l or
    level l) and c - g >= 0 with an upper bound u <= l (interval
    u - 1 < m), or the same with g and c swapped.  So
    ``proofs[b][_ON][_BELOW]`` at m = 1 holds b and the roots above it."""
    n, rows = rs.rank, _state_rows(rs, m)
    walls = _positivity_rows(n)
    return tuple(
        tuple(
            tuple(
                _mask(
                    c
                    for c, other in enumerate(rows)
                    if _pair_refutes(n, walls, other[t], extra)
                )
                for t in range(m + 1)
            )
            for extra in per_root
        )
        for per_root in rows
    )


def _face(rs: RootSystem, E: int, ideal: int, pinned: int, hint=None) -> Optional[tuple]:
    """A point of the face of the deletion to E in C, or None when it is
    empty; E, ``ideal`` and ``pinned`` are bitmasks of root indices.  The
    question at m = 1 puts the pinned roots of E on 1, the rest of the
    ideal below and the rest of E above; the hint is returned once it
    holds the question, and otherwise the kernel answers its rows,
    :func:`_question_rows` of the same ``held``."""
    rest = E & ~pinned
    held = (rest & ideal, rest & ~ideal, E & pinned)
    if hint is not None and _holds(_signature(rs, 1, hint), held):
        return hint
    return feasible_rows(rs.rank, _question_rows(rs, 1, held))


@lru_cache(maxsize=None)
def antichain_table(rs: RootSystem) -> tuple:
    """``(A, a, J)`` per antichain A of the root poset in its walk's order,
    a and J the bitmasks of A and its ideal.  Roots sorted by height make
    index order a linear extension, so ``natural_labeling`` is the identity
    on every restriction: filtered, the walk's order (size, then lex) holds.

    Above the kernel's bound every user of the table would fail in the
    kernel, so it raises the kernel's ``ValueError`` before the walk,
    whose length is the type's Catalan number."""
    if rs.rank > MAX_DIM:
        raise ValueError(f"dimension {rs.rank} exceeds the supported bound {MAX_DIM}")
    rp = root_poset(rs)
    return tuple((A, _mask(A), _mask(J)) for A, J in zip(rp.antichains(), rp.order_ideals()))


def _antichains_within(rs: RootSystem, E: int) -> list:
    """The deletion poset on the bitmask E, induced: rows inside E, ideals cut to E."""
    return [(A, a, J & E) for A, a, J in antichain_table(rs) if not a & ~E]


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
    below 1 and everything outside J above 1.  A deletion's face and
    facet rows of A are these with the rows outside E dropped (see
    :func:`antichain_table`), so one table serves every cone, unmoved.

    The table only proposes: each user passes a point as the hint of
    :func:`_face` for its own question, which judges it by its signature
    (the same test as check_witness on the question's rows) and asks the
    kernel when the point is missing or refused.
    """
    everything = (1 << len(rs.positive_roots)) - 1
    face, facet = {}, {}
    for A, a, ideal in antichain_table(rs):
        for b in A:
            point = _face(rs, everything, ideal, 1 << b)
            if point is not None:
                facet[A, b] = point
        point = _face(rs, everything, ideal, a)
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


def regions_in_dominant(rs: RootSystem, E: Iterable[int]) -> list:
    """All dominant-cone regions of the deletion to the root indices E:
    one per antichain A of the deletion poset (:func:`antichain_table`),
    with ceiling A, ideal J, A's root-poset ideal cut to E, and a witness
    from exact feasibility that certifies the region is nonempty.

    The kernel gets the region's irredundant rows only, through
    :func:`_face` on the deletion to A and the floor: the walls of C,
    a . x < 1 for a in A and f . x > 1 for f in the floor, the roots of
    E - J above no other root of E - J.  The roots above g are read from
    the certified column ``_state_proofs(rs, 1)[g][_ON][_BELOW]`` that
    :func:`ceiling_oracle` reads, g itself removed.  Every root of J
    lies below a root of A and every root of E - J above a floor root,
    so each dropped row follows from a kept one.  The witness is then
    judged on the region's whole question by :func:`_holds`, the test
    check_witness makes on :func:`region_rows`: a wrong floor raises
    AssertionError, never a wrong region."""
    E = _mask(E)
    proofs = _state_proofs(rs, 1)
    out = []
    for A, a, ideal in _antichains_within(rs, E):
        rest = E & ~ideal
        floor = rest & ~reduce(
            or_, (proofs[g][_ON][_BELOW] & ~(1 << g) for g in _bits(rest)), 0
        )
        witness = _face(rs, a | floor, ideal, 0)
        if witness is None:
            raise RuntimeError(
                "region construction produced an empty region; "
                "arrangement invariant violated"
            )
        if not _holds(_signature(rs, 1, witness), (ideal, rest, 0)):
            raise AssertionError(
                "region witness fails the region's rows; floor table violated"
            )
        out.append(ShiRegion(frozenset(_bits(ideal)), A, witness))
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
    return transport_regions(rs, w, regions_in_dominant(rs, complement_of_inversions(rs, w)))


def ceiling_oracle(rs: RootSystem, E: Iterable[int], region: ShiRegion) -> frozenset:
    """Facet-defining level-1 hyperplanes of a dominant region, by one
    independent probe per root of its ideal.

    A root b of the ideal is a ceiling exactly when its probe, the
    region's rows with ``b . x = 1`` pinned, is nonempty: the table's
    facet question for b with the rows outside E dropped.  b is no
    ceiling once :func:`_state_proofs` refutes b on 1 against another
    root of the ideal below 1 (a root above b, whose certificate keeps
    b's EQ row, so it is made of the probe's rows); otherwise the probe
    goes to :func:`_face` with the table point
    ``antichain_points(rs).facet[region.ceiling, b]`` as its hint.

    The table is keyed by the claimed ceiling, but a point only counts
    once it holds the probe's own question, so a wrong claim costs
    kernel calls, not a wrong answer.
    """
    E, ideal = _mask(E), _mask(region.ideal)
    proofs = _state_proofs(rs, 1)
    facets = antichain_points(rs).facet
    return frozenset(
        b
        for b in _bits(ideal)
        if not proofs[b][_ON][_BELOW] & ideal & ~(1 << b)
        and _face(rs, E, ideal, 1 << b, facets.get((region.ceiling, b))) is not None
    )


def _cells(rs: RootSystem, roots: Sequence[int], m: int) -> list:
    """Cells of the dominant cone cut by the level 1..m hyperplanes of
    ``roots``, built one root at a time in the given order; both callers
    pass ``roots`` ascending, so that prefix order is index order.

    A cell is its question ``held`` (m + 1 masks), which puts each root
    of its prefix in an interval state, and a point that holds it.  The
    point holds a child, the cell's question plus root i in state j,
    exactly when its :func:`_signature` puts i in state j: that child
    takes the point.  Any other child is empty once :func:`_state_proofs`
    refutes (i, j) against a pair the cell holds, and is otherwise the
    kernel's to answer, on :func:`_question_rows` of the child's ``held``.

    So every kernel call after the first (on the bare cone, asked before
    the state tables so that a rank above the kernel's bound fails at once)
    extends a nonempty cell of a shorter prefix, and at m = 1 it only ever
    finds a cell.  Returns the list of ``(held, witness)``, the witness
    being the point that admitted the cell, inside all of its rows.
    """
    cells = [((0,) * (m + 1), feasible_rows(rs.rank, list(_positivity_rows(rs.rank))))]
    proofs = _state_proofs(rs, m)
    for i in roots:
        grown = []
        for held, point in cells:
            signature = _signature(rs, m, point)
            for j in range(m + 1):
                if signature[j] >> i & 1:
                    grown.append((held[:j] + (held[j] | 1 << i,) + held[j + 1 :], point))
                elif not any(p & h for p, h in zip(proofs[i][j], held)):
                    child = held[:j] + (held[j] | 1 << i,) + held[j + 1 :]
                    witness = feasible_rows(rs.rank, _question_rows(rs, m, child))
                    if witness is not None:
                        grown.append((child, witness))
        cells = grown
    return cells


@lru_cache(maxsize=None)
def _dominant_cells(rs: RootSystem) -> tuple:
    """``(below, witness)`` for each dominant region of the whole Shi
    arrangement, in the order of :func:`_cells` at m = 1 over every root:
    ``below`` the bitmask of the roots below 1 there (the cell's
    ``held[0]``) and ``witness`` a point inside the cell's rows.  Walked
    once per type."""
    cells = _cells(rs, range(len(rs.positive_roots)), 1)
    return tuple((held[0], witness) for held, witness in cells)


def dominant_sign_oracle(rs: RootSystem, E: Iterable[int]) -> dict:
    """Dominant regions of a deletion by cell enumeration.

    Deleting hyperplanes only merges regions, so each dominant region of
    the deletion to E holds a dominant region c of the whole arrangement:
    its below-set is c's cut to E, and c's witness lies inside it.  The
    whole arrangement is walked once per type, by :func:`_dominant_cells`
    (:func:`_cells` at m = 1, keeping each side only while the prefix is
    shown nonempty: every side it drops is refuted by
    :func:`_state_proofs` against a state the cell holds, so the kernel is
    never asked about an empty one).  Each E is then a projection of that
    walk, returning {below-set: witness} with the witness of the first
    cell that cuts to the below-set.  That first-seen order is the order
    of a walk over E's own roots, lexicographic over E ascending with
    below before above: the first cell cutting to a below-set K puts
    below 1 exactly the roots above no root of E - K, so two such cells
    first differ at the first root of E where their below-sets do.
    Independent of the antichain route: it compares row vectors and never
    reads the root poset.
    """
    E = _mask(E)
    out: dict = {}
    for below, witness in _dominant_cells(rs):
        out.setdefault(below & E, witness)
    return {frozenset(_bits(below)): witness for below, witness in out.items()}


# -- flats -------------------------------------------------------------------


def flats_in_cone(rs: RootSystem, E: Iterable[int], w: WeylElement) -> IntersectionPoset:
    """Intersection poset, inside the cone wC, of the level-1 hyperplanes
    of the roots w(i) for the root indices i in E: one flat per antichain
    of the deletion poset on E, from :func:`antichain_table`, with
    generators reported in unrotated coordinates.  E is
    :func:`complement_of_inversions` for the full Shi arrangement; with w
    the identity, any E gives a deletion inside the dominant cone.

    Root i stands for the hyperplane of the root w(i).  Each flat must
    meet the cone and lie on no hyperplane of E outside its own
    antichain.  So its generators are complete, as
    :class:`IntersectionPoset` requires, and the lower interval of a flat
    of codim k is the Boolean lattice of its antichain's 2^k subsets.

    Both facts are proved in the dominant cone C by one point of the
    face of A in the deletion to E (A on its hyperplanes, the rest of
    A's ideal cut to E below 1, the rest of E above 1, x > 0):
    ``antichain_points(rs).face[A]`` once it holds that face's question
    (:func:`_face`), and otherwise the kernel's witness of its rows.
    w is an isometry that maps C onto wC and the level-1 hyperplane of
    root i onto that of w(i), so it maps that point onto the flat of
    w(A), inside wC and off every other hyperplane of the cone.
    """
    E = _mask(E)
    faces = antichain_points(rs).face
    entries = []
    for A, a, J in _antichains_within(rs, E):
        gens = frozenset(_positive_image(rs, w, i) for i in A)
        planes = [(rs.positive_roots[g], 1) for g in sorted(gens)]
        geometry = intersect_hyperplanes(rs.rank, planes)
        if geometry is None or geometry.codim != len(gens):
            raise RuntimeError(
                "antichain hyperplanes are dependent; arrangement invariant violated"
            )
        if _face(rs, E, J, a, faces.get(A)) is None:
            raise RuntimeError(
                "flat does not meet its cone off the other hyperplanes; "
                "arrangement invariant violated"
            )
        entries.append((gens, geometry))
    return IntersectionPoset(entries)


def flats_oracle(rs: RootSystem, w: WeylElement) -> IntersectionPoset:
    """Flats of the Shi arrangement meeting wC by closure.

    Closes the level-1 hyperplanes of the roots outside
    ``inversion_set(rs, w)`` under intersection, keeping the flats that
    meet the open cone, and labels each flat by the root indices of the
    hyperplanes containing it.  No antichain structure is assumed
    anywhere.
    """
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
    child that :func:`_state_proofs` does not refute (only at m >= 2) is
    dropped on the kernel's verdict.
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


def _report_body(rs: RootSystem, regions: list, poset) -> dict:
    """The regions, flats and Poincare polynomial (regions by ceiling size)
    shared by the reports; witnesses are printed as exact fractions."""
    assert len(poset) == len(regions)
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
        "poincare": list(IntPolynomial.from_sizes(len(r.ceiling) for r in regions)),
    }


def cone_report(rs: RootSystem, w: WeylElement) -> dict:
    """JSON-ready summary of one cone: regions, flats and Poincare data."""
    inv = inversion_set(rs, w)
    E = complement_of_inversions(rs, w)
    return {
        "word": "".join(str(i + 1) for i in w.word),
        "length": len(inv),
        "inversions": _root_list(rs, inv),
        **_report_body(
            rs,
            transport_regions(rs, w, regions_in_dominant(rs, E)),
            flats_in_cone(rs, E, w),
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
            flats_in_cone(rs, E, element_from_word(rs, ())),
        ),
    }
