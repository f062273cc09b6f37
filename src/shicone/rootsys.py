"""Irreducible crystallographic root systems and their Weyl groups.

Conventions
-----------
Roots are integer coordinate vectors in the simple-root basis, so the
simple roots are the unit vectors and a root is positive exactly when
all coordinates are >= 0 (and not all zero).  The Euclidean structure
is carried by the symmetrized Cartan form ``form[i][j] = (a_i, a_j)``;
no embedding into standard coordinates is used.

``cartan[i][j] = 2 (a_i, a_j) / (a_j, a_j)``, so the simple reflection
``s_i`` sends a coordinate vector v to v - (sum_j v_j cartan[j][i]) e_i.

Simple-root numbering: chains are numbered consecutively.  For B_n the
first simple root is the short one and for C_n the first is the long
one, so that in B2 the positive roots read a, b, a+b, 2a+b with a short.
Supported families: A (n>=1), B, C (n>=2), D (n>=3), G2, F4.

A Weyl group element is stored as the permutation it induces on
:func:`signed_roots` (the positive roots, then their negatives in the
same order), and by nothing else: the element's action on any vector
is linear, so it is fixed by the images of the simple roots.
:func:`weyl_group` computes every permutation once, by composing the
simple reflections' permutations along its breadth-first search;
inverses, inversion sets and the action on roots are read off the
permutation.

:func:`build_root_system`, cached per type, is the only constructor of
a :class:`RootSystem`: one object per type, compared and hashed by
identity, which is the equality every per-type cache needs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import prod
from typing import Iterable, Sequence

from .poly import IntPolynomial
from .posets import FinitePoset

RootVector = tuple  # integer coordinates in the simple-root basis
Matrix = tuple  # tuple of row tuples

_FAMILY_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3, "G": 2, "F": 4}
_FIXED_RANK = {"G": 2, "F": 4}

#: Hard bound on Weyl-group enumeration (largest supported group is F4).
MAX_WEYL_RANK = 4


@dataclass(frozen=True)
class CartanType:
    family: str
    rank: int

    def __post_init__(self):
        fam, n = self.family, self.rank
        if fam == "E":
            raise ValueError(
                "family 'E' is not supported: its Weyl groups exceed the "
                f"rank-{MAX_WEYL_RANK} enumeration bound this library is built around"
            )
        if fam not in _FAMILY_MIN_RANK:
            raise ValueError(f"unknown Cartan family {fam!r}")
        if not isinstance(n, int) or n < _FAMILY_MIN_RANK[fam]:
            raise ValueError(f"inadmissible rank {n} for family {fam}")
        if fam in _FIXED_RANK and n != _FIXED_RANK[fam]:
            raise ValueError(f"family {fam} only exists in rank {_FIXED_RANK[fam]}")

    @classmethod
    def parse(cls, text: str) -> "CartanType":
        m = re.fullmatch(r"\s*([A-Za-z])\s*(\d+)\s*", text, re.ASCII)
        if not m:
            raise ValueError(f"cannot parse Cartan type {text!r} (expected e.g. 'B2')")
        return cls(m.group(1).upper(), int(m.group(2)))

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def _cartan_matrix(ctype: CartanType) -> Matrix:
    fam, n = ctype.family, ctype.rank
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def bond(i, j, ij=-1, ji=-1):
        a[i][j] = ij
        a[j][i] = ji

    if fam in ("A", "B", "C"):
        for i in range(n - 1):
            bond(i, i + 1)
        if fam == "B" and n >= 2:
            bond(0, 1, -1, -2)  # node 0 short
        if fam == "C" and n >= 2:
            bond(0, 1, -2, -1)  # node 0 long
    elif fam == "D":
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 3, n - 1)
    elif fam == "G":
        bond(0, 1, -1, -3)  # node 0 short
    elif fam == "F":
        bond(0, 1)
        bond(1, 2, -2, -1)  # nodes 0,1 long; 2,3 short
        bond(2, 3)
    return tuple(tuple(row) for row in a)


def _root_norms(ctype: CartanType) -> tuple:
    """Squared lengths (a_i, a_i) of the simple roots."""
    fam, n = ctype.family, ctype.rank
    if fam in ("A", "D"):
        return (2,) * n
    if fam == "B":
        return (1,) + (2,) * (n - 1)
    if fam == "C":
        return (4,) + (2,) * (n - 1)
    if fam == "G":
        return (2, 6)
    return (2, 2, 1, 1)  # F4


_DEGREES = {
    "A": lambda n: tuple(range(2, n + 2)),
    "B": lambda n: tuple(2 * i for i in range(1, n + 1)),
    "C": lambda n: tuple(2 * i for i in range(1, n + 1)),
    "D": lambda n: tuple(2 * i for i in range(1, n)) + (n,),
    "G": lambda n: (2, 6),
    "F": lambda n: (2, 6, 8, 12),
}


@dataclass(frozen=True, eq=False)
class RootSystem:
    """Made only by :func:`build_root_system`; compared and hashed by identity."""

    ctype: CartanType
    cartan: Matrix
    form: Matrix  # Fractions; form[i][j] = (a_i, a_j)
    positive_roots: tuple  # RootVectors sorted by (height, coords)
    coxeter_number: int
    degrees: tuple

    @property
    def rank(self) -> int:
        return self.ctype.rank

    def __repr__(self) -> str:
        return f"RootSystem({self.ctype}, {len(self.positive_roots)} positive roots)"


@dataclass(frozen=True)
class WeylElement:
    """Group element as a permutation of the signed roots.

    ``perm[j]`` is the index in :func:`signed_roots` of the image of
    signed root j; with N positive roots, ``perm[j] < N`` says the image
    is positive.  The simple root a_j has index n-1-j, so the image of
    a_j is ``signed_roots(rs)[perm[n-1-j]]``.  ``word`` is a product
    expression in simple reflections, left factor first; for elements
    produced by :func:`weyl_group` it is a reduced word.
    """

    perm: tuple
    word: tuple

    def __repr__(self) -> str:
        return f"WeylElement(word={''.join(str(i + 1) for i in self.word) or 'e'})"


def is_positive_vec(coords: Sequence[int]) -> bool:
    return all(c >= 0 for c in coords) and any(c > 0 for c in coords)


def height(coords: Sequence[int]) -> int:
    return sum(coords)


def _reflect_simple(cartan: Matrix, v: Sequence[int], i: int) -> RootVector:
    c = sum(v[j] * cartan[j][i] for j in range(len(v)))
    out = list(v)
    out[i] -= c
    return tuple(out)


def _assert_positive_definite(form: Matrix) -> None:
    n = len(form)
    rows = [[Fraction(x) for x in row] for row in form]
    # Gaussian elimination over Fractions; all pivots must be positive.
    for k in range(n):
        if rows[k][k] <= 0:
            raise AssertionError("bilinear form is not positive definite")
        for i in range(k + 1, n):
            f = rows[i][k] / rows[k][k]
            for j in range(k, n):
                rows[i][j] -= f * rows[k][j]


@lru_cache(maxsize=None)
def build_root_system(ctype: CartanType) -> RootSystem:
    """Construct a root system by reflection closure of the simple roots."""
    n = ctype.rank
    cartan = _cartan_matrix(ctype)
    norms = _root_norms(ctype)
    form = tuple(
        tuple(Fraction(cartan[i][j] * norms[j], 2) for j in range(n)) for i in range(n)
    )
    for i in range(n):
        for j in range(n):
            assert form[i][j] == form[j][i]
    _assert_positive_definite(form)

    simples = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    roots = set(simples)
    queue = list(simples)
    while queue:
        v = queue.pop()
        for i in range(n):
            w = _reflect_simple(cartan, v, i)
            if is_positive_vec(w) and w not in roots:
                roots.add(w)
                queue.append(w)
    positive = tuple(sorted(roots, key=lambda r: (height(r), r)))

    h = 2 * len(positive) // n
    degrees = _DEGREES[ctype.family](n)
    assert h == max(degrees), "closure disagrees with the largest degree"
    assert len(positive) == n * h // 2
    assert sum(d - 1 for d in degrees) == len(positive), "exponents must sum to N"
    # height 1 sorts by coordinates, so simple root a_j sits at index n-1-j
    assert positive[:n] == tuple(reversed(simples)), "simple roots must come first"

    rs = RootSystem(ctype, cartan, form, positive, h, degrees)
    assert _catalan(rs) > 0
    return rs


@lru_cache(maxsize=None)
def root_index(rs: RootSystem) -> dict:
    """Coordinate vector -> index into ``positive_roots``."""
    return {r: i for i, r in enumerate(rs.positive_roots)}


def inner_product(rs: RootSystem, beta: Sequence, gamma: Sequence) -> Fraction:
    """Exact bilinear form value for coordinate vectors of length rank."""
    n = rs.rank
    if len(beta) != n or len(gamma) != n:
        raise ValueError("coordinate vectors must have length rank")
    total = Fraction(0)
    for i in range(n):
        if beta[i]:
            row = rs.form[i]
            total += beta[i] * sum(row[j] * gamma[j] for j in range(n) if gamma[j])
    return total


@lru_cache(maxsize=None)
def signed_roots(rs: RootSystem) -> tuple:
    """The positive roots, then their negatives in the same order."""
    return rs.positive_roots + tuple(tuple(-c for c in r) for r in rs.positive_roots)


@lru_cache(maxsize=None)
def _signed_index(rs: RootSystem) -> dict:
    return {r: k for k, r in enumerate(signed_roots(rs))}


@lru_cache(maxsize=None)
def _simple_perms(rs: RootSystem) -> tuple:
    """Permutations of the signed roots induced by the simple reflections."""
    index = _signed_index(rs)
    return tuple(
        tuple(index[_reflect_simple(rs.cartan, r, i)] for r in signed_roots(rs))
        for i in range(rs.rank)
    )


def element_from_word(rs: RootSystem, word: Iterable[int]) -> WeylElement:
    """Weyl element for an arbitrary (not necessarily reduced) word."""
    gens = _simple_perms(rs)
    word = tuple(word)
    perm = tuple(range(2 * len(rs.positive_roots)))
    for i in word:
        if not 0 <= i < rs.rank:
            raise ValueError(f"generator index {i} out of range")
        perm = tuple([perm[j] for j in gens[i]])
    return WeylElement(perm, word)


@lru_cache(maxsize=None)
def weyl_group(rs: RootSystem) -> tuple:
    """All Weyl group elements by breadth-first closure over the generators.

    Each element carries the first reduced word the BFS reached it by
    (generator index order breaks ties).  The identity comes first and
    word length is monotone along the sequence.
    """
    if rs.rank > MAX_WEYL_RANK:
        raise ValueError(
            f"Weyl group enumeration is limited to rank <= {MAX_WEYL_RANK}"
        )
    gens = _simple_perms(rs)
    e = tuple(range(2 * len(rs.positive_roots)))
    seen = {e}
    order = [(e, ())]
    frontier = order[:]
    while frontier:
        nxt = []
        for perm, word in frontier:
            for i, g in enumerate(gens):
                p = tuple([perm[j] for j in g])
                if p not in seen:
                    seen.add(p)
                    nxt.append((p, word + (i,)))
        order += nxt
        frontier = nxt
    return tuple(WeylElement(perm, word) for perm, word in order)


def inverse_element(rs: RootSystem, w: WeylElement) -> WeylElement:
    """Inverse; the reversed word is a valid (reduced if w's was) word."""
    inv = [0] * len(w.perm)
    for j, k in enumerate(w.perm):
        inv[k] = j
    return WeylElement(tuple(inv), w.word[::-1])


def act(rs: RootSystem, w: WeylElement, coords: Sequence[int]) -> RootVector:
    """Image of a root under w; the result is again a root."""
    k = _signed_index(rs).get(tuple(coords))
    if k is None:
        raise ValueError(f"{tuple(coords)} is not a root")
    return signed_roots(rs)[w.perm[k]]


def inversion_set(rs: RootSystem, w: WeylElement) -> frozenset:
    """Indices of positive roots sent to negative roots by w^{-1}, that is
    the positive images of negative roots under w."""
    n = len(rs.positive_roots)
    return frozenset(k for k in w.perm[n:] if k < n)


@lru_cache(maxsize=None)
def root_poset(rs: RootSystem) -> FinitePoset:
    """Root poset on indices into ``positive_roots``.

    Covers are the pairs whose difference is a simple root; the order is
    the transitive closure of those covers.
    """
    idx = root_index(rs)
    n = rs.rank
    rel = []
    for i, r in enumerate(rs.positive_roots):
        for s in range(n):
            up = list(r)
            up[s] += 1
            j = idx.get(tuple(up))
            if j is not None:
                rel.append((i, j))
    return FinitePoset(range(len(rs.positive_roots)), rel)


def _catalan(rs: RootSystem) -> int:
    num = prod(d + rs.coxeter_number for d in rs.degrees)
    den = prod(rs.degrees)
    assert num % den == 0
    return num // den


@dataclass(frozen=True)
class Numerology:
    catalan: int
    parking: int
    narayana: IntPolynomial


def numerology(rs: RootSystem) -> Numerology:
    """Catalan and parking-function counts plus the Narayana refinement."""
    catalan = _catalan(rs)
    parking = (rs.coxeter_number + 1) ** rs.rank
    narayana = root_poset(rs).antichain_polynomial()
    assert narayana(1) == catalan
    return Numerology(catalan, parking, narayana)
