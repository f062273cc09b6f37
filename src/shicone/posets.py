"""Finite posets with antichain and order-ideal machinery.

Elements are arbitrary hashable ids kept in a fixed sequence order.
Antichains and order ideals are plain frozensets of element ids; the
owning poset validates and interprets them.  The order relation is
stored as bitmask rows over element positions, which keeps antichain
enumeration and closure operations cheap for the poset sizes that occur
here (root posets have at most 24 elements).
"""

from __future__ import annotations

from typing import Hashable, Iterable, Optional, Sequence

from .poly import IntPolynomial

ElementId = Hashable


def _bits(mask: int):
    """Yield set bit positions of ``mask`` from lowest to highest."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class FinitePoset:
    """A finite poset built from a generating relation.

    ``relation`` is any iterable of pairs ``(a, b)`` meaning ``a < b``;
    the order is its reflexive-transitive closure.  Construction fails
    if the closure is not antisymmetric (i.e. the relation has a cycle).
    A poset is immutable; its antichains are enumerated once.
    """

    def __init__(self, elements: Sequence[ElementId], relation: Iterable[tuple] = ()):
        elements = tuple(elements)
        pos = {e: i for i, e in enumerate(elements)}
        if len(pos) != len(elements):
            raise ValueError("duplicate elements")
        n = len(elements)
        up = [1 << i for i in range(n)]
        for a, b in relation:
            up[pos[a]] |= 1 << pos[b]
        # Bitset Warshall closure.
        for k in range(n):
            kbit = 1 << k
            for i in range(n):
                if up[i] & kbit:
                    up[i] |= up[k]
        self._adopt(elements, up)
        for i in range(n):
            if up[i] & self._down[i] != 1 << i:
                raise ValueError("relation is not antisymmetric (has a cycle)")

    def _adopt(self, elements: tuple, up: list) -> None:
        """Set the elements, the up-set masks and what derives from them;
        the down-set masks are the transpose of the up-set masks."""
        self.elements: tuple = elements
        self._pos: dict = {e: i for i, e in enumerate(elements)}
        self._n = n = len(elements)
        self._up = up
        self._down = down = [0] * n
        for i in range(n):
            for j in _bits(up[i]):
                down[j] |= 1 << i
        self._antichains: Optional[tuple] = None

    # -- basic queries ---------------------------------------------------

    def __len__(self) -> int:
        return self._n

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, e: ElementId) -> bool:
        return e in self._pos

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FinitePoset):
            return NotImplemented
        return self.elements == other.elements and self._up == other._up

    def __hash__(self) -> int:
        return hash((self.elements, tuple(self._up)))

    def __repr__(self) -> str:
        return f"FinitePoset({len(self)} elements, {len(self.cover_pairs())} covers)"

    def leq(self, a: ElementId, b: ElementId) -> bool:
        return bool(self._up[self._pos[a]] & (1 << self._pos[b]))

    def comparable(self, a: ElementId, b: ElementId) -> bool:
        return self.leq(a, b) or self.leq(b, a)

    def _set(self, mask: int) -> frozenset:
        return frozenset(self.elements[i] for i in _bits(mask))

    def _mask(self, S: Iterable[ElementId]) -> int:
        m = 0
        for e in S:
            m |= 1 << self._pos[e]
        return m

    def cover_pairs(self) -> list[tuple]:
        """Cover relations (a, b) with b covering a, in position order."""
        out = []
        for i in range(self._n):
            for j in _bits(self._up[i] & ~(1 << i)):
                between = self._up[i] & self._down[j]
                if between.bit_count() == 2:
                    out.append((self.elements[i], self.elements[j]))
        return out

    def maximal_elements(self) -> frozenset:
        return frozenset(
            self.elements[i] for i in range(self._n) if self._up[i] == 1 << i
        )

    # -- subposets and closures ------------------------------------------

    @classmethod
    def _from_masks(cls, elements: tuple, up: list) -> "FinitePoset":
        """Internal: adopt precomputed (already valid) up-set masks."""
        poset = cls.__new__(cls)
        poset._adopt(elements, up)
        return poset

    def restrict(self, S: Iterable[ElementId]) -> "FinitePoset":
        """Induced subposet on ``S`` (element order preserved)."""
        keep = self._mask(S)
        positions = list(_bits(keep))
        sub = tuple(self.elements[i] for i in positions)
        up = []
        for i in positions:
            mask = self._up[i] & keep
            compressed = 0
            for new_j, old_j in enumerate(positions):
                if mask & (1 << old_j):
                    compressed |= 1 << new_j
            up.append(compressed)
        return FinitePoset._from_masks(sub, up)

    def is_antichain(self, S: Iterable[ElementId]) -> bool:
        """Whether no member of ``S`` is repeated or below another."""
        items = list(S)
        m = self._mask(items)
        return m.bit_count() == len(items) and all(
            self._up[i] & m == 1 << i for i in _bits(m)
        )

    def _closure(self, masks: list, A: Iterable[ElementId]) -> frozenset:
        """Union of ``masks`` (down-sets or up-sets) over the elements of A."""
        m = 0
        for e in A:
            m |= masks[self._pos[e]]
        return self._set(m)

    def ideal_generated(self, A: Iterable[ElementId]) -> frozenset:
        """Downward closure of the antichain ``A`` (including ``A``)."""
        items = list(A)
        if not self.is_antichain(items):
            raise ValueError("generators are not an antichain")
        return self._closure(self._down, items)

    def filter_generated(self, A: Iterable[ElementId]) -> frozenset:
        """Upward closure of the antichain ``A`` (including ``A``)."""
        items = list(A)
        if not self.is_antichain(items):
            raise ValueError("generators are not an antichain")
        return self._closure(self._up, items)

    def is_ideal(self, S: Iterable[ElementId]) -> bool:
        m = self._mask(S)
        return all(self._down[i] & ~m == 0 for i in _bits(m))

    def max_elements(self, S: Iterable[ElementId]) -> frozenset:
        """Maximal elements of an arbitrary subset; an antichain."""
        m = self._mask(S)
        return frozenset(
            self.elements[i] for i in _bits(m) if self._up[i] & m == 1 << i
        )

    # -- antichain enumeration -------------------------------------------

    def natural_labeling(self) -> tuple:
        """A linear extension; ties broken by position in the element sequence."""
        down = list(self._down)
        placed = 0
        out = []
        for _ in range(self._n):
            i = next(
                j
                for j in range(self._n)
                if not placed & (1 << j) and down[j] & ~placed == 1 << j
            )
            placed |= 1 << i
            out.append(self.elements[i])
        return tuple(out)

    def antichains(self) -> list[frozenset]:
        """All antichains exactly once, grouped by increasing cardinality.

        The one path into the antichain cache: enumerated on the first
        call, together with their order-ideal masks, and every call
        returns a new list.
        """
        if self._antichains is None:
            self._antichains, self._ideals = self._enumerate_antichains()
        return list(self._antichains)

    def _enumerate_antichains(self) -> tuple:
        """Walks elements in natural-label order, extending each antichain
        only by later, incomparable elements, so every antichain is
        produced once and each size group comes out already together.
        Returns the antichains and, in the same order, their order-ideal
        bitmasks (bit i for element i), which :meth:`_ideal_masks` reads."""
        order = [self._pos[e] for e in self.natural_labeling()]
        n = self._n
        down = self._down
        # incomparable-and-later masks in natural-order indexing
        incomp_after = []
        for a in range(n):
            m = 0
            for b in range(a + 1, n):
                i, j = order[a], order[b]
                if not (self._up[i] & (1 << j) or self._up[j] & (1 << i)):
                    m |= 1 << b
            incomp_after.append(m)
        element = [self.elements[i] for i in order]
        antichains, ideals = [frozenset()], [0]
        level = [((), (1 << n) - 1, 0)]
        while level:
            level = [
                (members + (a,), cand & incomp_after[a], ideal | down[order[a]])
                for members, cand, ideal in level
                for a in _bits(cand)
            ]
            antichains += [frozenset(map(element.__getitem__, m)) for m, _, _ in level]
            ideals += [ideal for _, _, ideal in level]
        return tuple(antichains), tuple(ideals)

    def _ideal_masks(self) -> tuple:
        """Order-ideal bitmasks of :meth:`antichains`, in its order, read
        through it; ``orderring.polytope_vertices`` reads them too."""
        self.antichains()
        return self._ideals

    def order_ideals(self) -> list[frozenset]:
        """All order ideals, in bijection with (and ordered like) antichains."""
        return list(map(self._set, self._ideal_masks()))

    def order_filters(self) -> list[frozenset]:
        return [self._closure(self._up, A) for A in self.antichains()]

    def antichain_polynomial(self) -> IntPolynomial:
        """Generating polynomial of antichains by cardinality."""
        return IntPolynomial.from_sizes(map(len, self.antichains()))

    def delete_split(self, k: ElementId) -> tuple["FinitePoset", "FinitePoset"]:
        """Split along a maximal element ``k``.

        Returns ``(P1, P0)`` where P1 drops ``k`` itself and P0 drops the
        whole principal ideal of ``k``.  Antichains of the poset are then
        those of P1 plus ``A | {k}`` for antichains A of P0.
        """
        if k not in self._pos:
            raise ValueError(f"{k!r} is not an element")
        if self._up[self._pos[k]] != 1 << self._pos[k]:
            raise ValueError(f"{k!r} is not maximal")
        p1 = self.restrict(e for e in self.elements if e != k)
        dropped = self._down[self._pos[k]]
        p0 = self.restrict(
            e for i, e in enumerate(self.elements) if not dropped & (1 << i)
        )
        return p1, p0

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        """JSON form: elements plus cover pairs as positions into them."""
        return {
            "elements": list(self.elements),
            "covers": [
                [self._pos[a], self._pos[b]] for a, b in self.cover_pairs()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "FinitePoset":
        """Inverse of :meth:`to_json_dict`.  ``elements`` and ``covers``
        must be lists, and a cover that is not a pair of distinct
        positions into ``elements`` raises ``ValueError``."""
        elements = data["elements"]
        covers = data.get("covers", [])
        for key, value in (("elements", elements), ("covers", covers)):
            if not isinstance(value, list):
                raise ValueError(f"{key} must be a list, not {type(value).__name__}")
        n = len(elements)
        rel = []
        for cover in covers:
            if not (
                isinstance(cover, list)
                and len(cover) == 2
                and all(type(k) is int and 0 <= k < n for k in cover)
                and cover[0] != cover[1]
            ):
                raise ValueError(
                    f"cover {cover!r} is not a pair of distinct positions in 0..{n - 1}"
                )
            rel.append((elements[cover[0]], elements[cover[1]]))
        return cls(elements, rel)


def random_poset(n: int, rng, edge_prob: float = 0.3) -> FinitePoset:
    """Random naturally-labelled poset on 0..n-1 (edges only go upward)."""
    rel = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < edge_prob
    ]
    return FinitePoset(range(n), rel)
