from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import pytest

from shicone.exactgeom import EQ, GE, GT
from shicone.rootsys import CartanType, build_root_system


@lru_cache(maxsize=None)
def get_rs(name: str):
    return build_root_system(CartanType.parse(name))


@pytest.fixture
def rs_b2():
    return get_rs("B2")


@pytest.fixture
def rs_a3():
    return get_rs("A3")


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
