from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import pytest

from shicone import shi
from shicone.exactgeom import EQ, GE, GT
from shicone.rootsys import CartanType, build_root_system
from shicone.shi import AntichainPoints


@lru_cache(maxsize=None)
def get_rs(name: str):
    return build_root_system(CartanType.parse(name))


@pytest.fixture
def rs_b2():
    return get_rs("B2")


@pytest.fixture
def rs_a3():
    return get_rs("A3")


def clear_shi_caches():
    """Empties every ``lru_cache`` defined in :mod:`shicone.shi`, found by
    its ``cache_clear`` attribute, so that a cache added there is cleared
    without being named here."""
    for value in vars(shi).values():
        if hasattr(value, "cache_clear") and value.__module__ == shi.__name__:
            value.cache_clear()


@pytest.fixture
def fresh_point_table():
    """Empties the caches of :mod:`shicone.shi` before and after a test
    that patches the kernel's entry or the certificate checker, so that
    nothing built under the patch outlives the test and no count depends
    on which test built it first."""
    clear_shi_caches()
    yield
    clear_shi_caches()


def mat_vec(m, v) -> tuple:
    n = len(m)
    return tuple(sum(m[i][j] * v[j] for j in range(n)) for i in range(n))


def mat_mul(a, b) -> tuple:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def weyl_matrix(rs, w) -> tuple:
    """Coordinate matrix of w, ``[i][j]`` the coefficient of a_i in w(a_j).

    The product of simple-reflection matrices along ``w.word``, left
    factor first, each built from ``rs.cartan`` alone (s_k sends a_j to
    a_j - cartan[j][k] a_k); nothing of ``w`` but its word is read.
    """
    n = rs.rank
    m = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    for k in w.word:
        s_k = tuple(
            tuple(int(i == j) - int(i == k) * rs.cartan[j][k] for j in range(n))
            for i in range(n)
        )
        m = mat_mul(m, s_k)
    return m


def bumped_point_table(rs, table):
    """The point table with one coordinate of every point raised by
    1/den: the first coordinate in which the lowest pinned root is
    nonzero, so that the pinned equality fails (the empty antichain's
    point keeps its place in the cone)."""

    def bump(point, pinned):
        nums, den = point
        roots = [rs.positive_roots[b] for b in sorted(pinned)]
        i = next(k for k, c in enumerate(roots[0]) if c) if roots else 0
        return (*nums[:i], nums[i] + 1, *nums[i + 1 :]), den

    return AntichainPoints(
        {A: bump(p, A) for A, p in table.face.items()},
        {(A, b): bump(p, {b}) for (A, b), p in table.facet.items()},
    )


RANK_LE_3 = ["A1", "A2", "A3", "B2", "B3", "C3", "D3", "G2"]
RANK_4 = ["A4", "B4", "C4", "D4", "F4"]


# -- rational-sampling oracle for the feasibility kernel --------------------


#: The five relations ``=``, ``>``, ``<``, ``>=``, ``<=`` as a sign and a
#: kernel kind: ``<`` and ``<=`` are the negated ``>`` and ``>=`` rows.
RELATIONS = ((1, EQ), (1, GT), (-1, GT), (1, GE), (-1, GE))


def relation_row(normal, relation, rhs) -> tuple:
    """The kernel row ``(coeffs, rhs, kind)`` of ``normal . x <relation> rhs``."""
    sign, kind = relation
    return tuple(sign * c for c in normal), sign * rhs, kind


def holds(row, point) -> bool:
    """Whether the rational point (a sequence of ints or Fractions)
    satisfies the kernel row ``coeffs . x (= | >= | >) rhs``, evaluated in
    Fractions without calling the library."""
    coeffs, rhs, kind = row
    value = sum(Fraction(c) * x for c, x in zip(coeffs, point))
    if kind == EQ:
        return value == rhs
    if kind == GE:
        return value >= rhs
    if kind == GT:
        return value > rhs
    raise ValueError(f"unknown constraint kind {kind!r}")
