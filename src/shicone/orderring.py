"""The order ring of a finite poset and its region-ring counterpart.

The order ring of P is the ring of integer-valued functions on the
order ideals of P under pointwise operations.  It is generated by the
Heaviside functions y_p (membership indicators of p across ideals), has
the delta functions of ideals as a linear basis, and its associated
graded ring has the squarefree antichain monomials as a basis, so its
Hilbert series is the antichain-counting polynomial.

The same ring arises from the dominant cone of a Shi deletion as the
ring of integer functions on regions, with Heaviside functions reading
off which side of a level-1 hyperplane a region lies on; the dictionary
region <-> order ideal identifies the two, and :func:`vg_heaviside`
evaluates the geometric side from a region's exact witness.

Order-polytope vertices are indicator vectors of order filters; the
quadratic generators z_p(1 - z_q) for p <= q vanish on all of them and
cut out the ring as a quotient of the polynomial ring.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .exactgeom import GT, check_witness
from .poly import IntPolynomial
from .posets import FinitePoset
from .rootsys import RootSystem, signed_roots
from .shi import ShiRegion

#: Elements beyond this make the dense function representation silly.
MAX_RING_ELEMENTS = 24


class RingElement:
    """A function from the order ideals of a fixed poset to the integers.

    Values are stored densely, aligned with the owning ring's ideal
    sequence; addition and multiplication are pointwise.
    """

    __slots__ = ("ring", "values")

    def __init__(self, ring: "OrderRing", values: Sequence[int]):
        if len(values) != len(ring.ideals):
            raise ValueError("value vector does not match the ideal family")
        self.ring = ring
        self.values = tuple(int(v) for v in values)

    def __call__(self, ideal: Iterable) -> int:
        return self.values[self.ring.ideal_position(ideal)]

    def _check_ring(self, other: "RingElement") -> None:
        if self.ring is not other.ring and self.ring.poset != other.ring.poset:
            raise ValueError("ring elements belong to different posets")

    def __add__(self, other: "RingElement") -> "RingElement":
        self._check_ring(other)
        return RingElement(self.ring, [a + b for a, b in zip(self.values, other.values)])

    def __sub__(self, other: "RingElement") -> "RingElement":
        self._check_ring(other)
        return RingElement(self.ring, [a - b for a, b in zip(self.values, other.values)])

    def __mul__(self, other: "RingElement | int") -> "RingElement":
        if isinstance(other, int):
            return RingElement(self.ring, [a * other for a in self.values])
        self._check_ring(other)
        return RingElement(self.ring, [a * b for a, b in zip(self.values, other.values)])

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RingElement):
            return NotImplemented
        return self.ring.poset == other.ring.poset and self.values == other.values

    def __hash__(self) -> int:
        return hash(self.values)

    def __repr__(self) -> str:
        return f"RingElement({list(self.values)!r})"


class OrderRing:
    """Container fixing the poset and its ideal family once."""

    def __init__(self, poset: FinitePoset):
        if len(poset) > MAX_RING_ELEMENTS:
            raise ValueError(
                f"order ring materializes one value per order ideal; "
                f"posets are capped at {MAX_RING_ELEMENTS} elements"
            )
        self.poset = poset
        self.ideals = tuple(poset.order_ideals())
        self._pos = {ideal: i for i, ideal in enumerate(self.ideals)}

    def ideal_position(self, ideal: Iterable) -> int:
        key = frozenset(ideal)
        if key not in self._pos:
            raise ValueError("not an order ideal of this poset")
        return self._pos[key]

    def zero(self) -> RingElement:
        return RingElement(self, [0] * len(self.ideals))

    def one(self) -> RingElement:
        return RingElement(self, [1] * len(self.ideals))

    def delta(self, ideal: Iterable) -> RingElement:
        j = self.ideal_position(ideal)
        return RingElement(self, [1 if i == j else 0 for i in range(len(self.ideals))])

    def heaviside(self, p) -> RingElement:
        if p not in self.poset:
            raise ValueError(f"{p!r} is not a poset element")
        return RingElement(self, [1 if p in ideal else 0 for ideal in self.ideals])


def vg_heaviside(rs: RootSystem, E: Iterable[int], region: ShiRegion, b: int) -> int:
    """Side indicator of a region against the level-1 hyperplane of b.

    Reads the exact witness: 1 when the region lies strictly below
    level 1.  By the region/ideal dictionary this must agree with
    membership of b in the region's ideal.
    """
    if b not in set(E):
        raise ValueError("root index outside the deletion set")
    row = (signed_roots(rs)[len(rs.positive_roots) + b], -1, GT)
    return int(check_witness(rs.rank, [row], region.witness))


# -- order polytope and presentation ------------------------------------------


def polytope_vertices(poset: FinitePoset) -> frozenset:
    """Vertices of the order polytope: 0/1 indicator vectors of order
    filters, over the poset's element sequence.  Their number equals the
    number of antichains."""
    filters = poset.order_filters()
    verts = frozenset(tuple(int(e in F) for e in poset.elements) for F in filters)
    assert len(verts) == len(filters)
    return verts


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
