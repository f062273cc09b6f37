"""The order ring of a finite poset and its region-ring counterpart.

Both rings are rings of functions on a finite point set.  The order
ring of P lives on the order ideals of P and is generated by the
Heaviside functions y_p, the membership indicators of p.  The
Varchenko-Gel'fand (VG) ring of the dominant cone of a Shi deletion
lives on its regions and is generated by the Heaviside functions of the
level-1 hyperplanes, which :func:`vg_heaviside` evaluates from a
region's exact witness.  The dictionary region <-> order ideal
identifies the two.

With each generator stored as a bitmask over the points,
:func:`filtered_hilbert` computes the Hilbert series of the degree
filtration of either ring by ranks over the rationals.  For the order
ring that series is the antichain-counting polynomial, which
:func:`hilbert_series` returns by formula: the squarefree antichain
monomials (:func:`standard_monomials`) are a basis of the associated
graded ring.

Order-polytope vertices are indicator vectors of order filters; the
quadratic generators z_p(1 - z_q) for p <= q vanish on all of them and
cut out the ring as a quotient of the polynomial ring.
"""

from __future__ import annotations

from typing import Collection, Iterable, Sequence

from .exactgeom import GT, AffineFlat, check_witness, meet
from .poly import IntPolynomial
from .posets import FinitePoset
from .rootsys import RootSystem, signed_roots
from .shi import ShiRegion


def membership_masks(points: Sequence[Iterable], elements: Iterable) -> list:
    """The Heaviside functions on a family of sets, one bitmask per
    element: bit i is set when the element lies in ``points[i]``."""
    return [sum(1 << i for i, S in enumerate(points) if e in S) for e in elements]


def filtered_hilbert(masks: Iterable[int], n: int) -> IntPolynomial:
    """Hilbert series of the ring of functions on n points generated by
    0/1 functions, each given as a bitmask (bit i is its value at point
    i), filtered by degree in the generators.

    F_k is spanned by the ANDs of at most k masks: products of at most k
    generators, of which the squarefree ones suffice since x^2 = x for
    0/1 values.  The coefficient of t^k is dim F_k - dim F_{k-1}, by
    ranks over the rationals with :func:`meet`.  As F_{k+1} = F_k F_1,
    only the products that raised the rank at level k are extended to
    level k + 1, and the first level that adds nothing ends the series.
    """
    masks = set(masks)
    span = AffineFlat(n, (), ())
    seen = set()
    counts = []
    level = [(1 << n) - 1]
    while True:
        added = []
        for p in level:
            if p not in seen:
                seen.add(p)
                grown = meet(span, [p >> i & 1 for i in range(n)], 0)
                if grown is not span:
                    span = grown
                    added.append(p)
        if not added:
            return IntPolynomial(counts)
        counts.append(len(added))
        level = [p & m for p in added for m in masks]


def vg_heaviside(rs: RootSystem, E: Collection[int], region: ShiRegion, b: int) -> int:
    """Side indicator of a region against the level-1 hyperplane of b.

    Reads the exact witness: 1 when the region lies strictly below
    level 1.  By the region/ideal dictionary this must agree with
    membership of b in the region's ideal.
    """
    if b not in E:
        raise ValueError("root index outside the deletion set")
    row = (signed_roots(rs)[len(rs.positive_roots) + b], -1, GT)
    return int(check_witness(rs.rank, [row], region.witness))


# -- order polytope and presentation ------------------------------------------


#: Maps the ASCII digits of a binary numeral to the byte values 0 and 1.
_BIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


def polytope_vertices(poset: FinitePoset) -> list:
    """Vertices of the order polytope: 0/1 indicator vectors of order
    filters, over the poset's element sequence, as a new list of tuples
    in lexicographic order.  Their number equals the number of
    antichains.

    Order filters are the complements of order ideals, so each vertex is
    ``full ^ m`` for a mask m of ``FinitePoset._ideal_masks`` (bit i for
    element i), the one reader of that private helper outside ``posets``.
    Each complement is sorted as its bit string, lowest bit first, read
    under an extra top bit so that the empty poset gives ``""``."""
    full = (2 << len(poset)) - 1
    rows = sorted(format(full ^ m, "b")[:0:-1] for m in poset._ideal_masks())
    # distinct antichains give distinct filters
    assert all(a < b for a, b in zip(rows, rows[1:]))
    return [tuple(row.encode().translate(_BIT_VALUES)) for row in rows]


def generators(poset: FinitePoset) -> tuple:
    """The quadratic relations z_p (1 - z_q), one per pair p <= q, in
    the order of (position of p, position of q).

    Pairs with p = q give the idempotency relations z_p - z_p^2.  Every
    generator vanishes on every order-polytope vertex.
    """
    return tuple(
        (a, b) for a in poset.elements for b in poset.elements if poset.leq(a, b)
    )


def generator_value(poset: FinitePoset, pair: tuple, vertex: Sequence[int]) -> int:
    """Evaluate z_p (1 - z_q) at a 0/1 point indexed like the elements."""
    pos = {e: i for i, e in enumerate(poset.elements)}
    p, q = pair
    return vertex[pos[p]] * (1 - vertex[pos[q]])


def generator_strings(poset: FinitePoset) -> list:
    """Canonical text form of the generators, in :func:`generators` order."""
    return [f"z_{p}*(1-z_{q})" for p, q in generators(poset)]


def standard_monomials(poset: FinitePoset) -> list:
    """Squarefree monomial basis of the associated graded ring.

    A monomial (given by its support) is standard exactly when the
    support is an antichain; the list comes out grouped by degree.
    """
    return poset.antichains()


def hilbert_series(poset: FinitePoset) -> IntPolynomial:
    """Hilbert series of the associated graded order ring: the antichain
    counting polynomial of the poset."""
    return poset.antichain_polynomial()
