"""Exact rational linear geometry: feasibility and affine flats.

Everything is exact; there is no floating point anywhere and no
tolerances.  Points and flats are stored in integers, in the formats
this module defines:

* an exact point is a pair ``(nums, den)`` of an integer numerator
  vector and a positive common denominator, the form the feasibility
  kernel returns;
* an :class:`AffineFlat` holds only the primitive integer reduced rows
  of its system.  One fraction-free elimination does everything: a
  hyperplane's row is reduced against the rows' pivots, and the
  residual decides containment (:func:`flat_contains`) or, when it is
  not zero, becomes a new reduced row (:func:`meet`, which builds every
  flat).

Feasibility of mixed strict and non-strict systems is decided by
Fourier-Motzkin elimination with exact witness extraction, in the
integer kernel ``_fmcore_py``.  :func:`feasible_rows` is the one entry
to the kernel: it takes integer rows (a rational system enters with its
denominators cleared) and returns its ``(nums, den)`` witness once
:func:`check_witness` accepts it; :func:`check_farkas` checks integer
multipliers of the rows that prove infeasibility.  Neither checker
calls the kernel.  :func:`as_fractions` converts a point to Fractions.

Ambient dimension is capped at 4, in :func:`feasible_rows` and
:func:`intersect_hyperplanes` alike: open cones of the rank <= 4 Weyl
groups are the only customers, and the cap keeps elimination blow-up
irrelevant.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul
from typing import Iterable, Optional, Sequence

from . import _fmcore_py as _fmcore

# Kept as a constant so benchmark records still name the kernel they timed.
KERNEL_BACKEND = "pure-python"

EQ, GE, GT = _fmcore.EQ, _fmcore.GE, _fmcore.GT

MAX_DIM = 4


def feasible_rows(dim: int, rows: Iterable[tuple]) -> Optional[tuple]:
    """Feasibility of integer rows ``(coeffs, rhs, kind)`` in ``dim``
    variables, ``kind`` one of EQ, GE, GT; ``rows`` may be any iterable.

    Returns the kernel's point ``(nums, den)``, ``x_i = nums[i] / den``
    with ``den > 0``, once :func:`check_witness` accepts it (else
    ``AssertionError``), or None if infeasible.  Raises ``ValueError``
    for ``dim > MAX_DIM`` or a row of another dimension.
    """
    if dim > MAX_DIM:
        raise ValueError(f"dimension {dim} exceeds the supported bound {MAX_DIM}")
    if not isinstance(rows, (list, tuple)):
        rows = list(rows)  # read twice: by the kernel and by check_witness
    point = _fmcore.solve(dim, rows)
    if point is None or check_witness(dim, rows, point):
        return point
    raise AssertionError("witness failed exact re-substitution")


def check_witness(dim: int, rows: Iterable[tuple], point: tuple) -> bool:
    """Whether ``len(nums) == dim``, ``den > 0`` and the point ``(nums, den)``
    satisfies each row: ``coeffs . nums (= | >= | >) rhs * den``.  Raises
    ``ValueError`` for a row it reads of another dimension or kind."""
    nums, den = point
    if len(nums) != dim or den <= 0:
        return False
    for coeffs, rhs, kind in rows:
        if len(coeffs) != dim:
            raise ValueError(f"not a row in {dim} variables: {(coeffs, rhs, kind)}")
        d = sum(map(mul, coeffs, nums)) - rhs * den
        if not (kind == GT and d > 0 or kind == GE and d >= 0 or kind == EQ and d == 0):
            if kind not in (EQ, GE, GT):
                raise ValueError(f"not a row in {dim} variables: {(coeffs, rhs, kind)}")
            return False
    return True


def check_farkas(dim: int, rows, lam: Sequence[int]) -> bool:
    """Whether the integer multipliers ``lam`` prove the rows infeasible.

    This is the transposition theorem of Motzkin: with ``lam >= 0`` on
    the GE and GT rows (EQ rows take either sign), every solution would
    satisfy ``sum lam*coeffs . x >= sum lam*rhs``, strictly when some GT
    row has a positive multiplier.  So ``sum lam*coeffs = 0`` together
    with ``sum lam*rhs > 0``, or ``= 0`` and a positive multiplier on a
    GT row, leaves no solution.  Independent of the kernel.
    """
    if len(lam) != len(rows):
        return False
    normal = [0] * dim
    total = 0
    strict = False
    for (coeffs, rhs, kind), t in zip(rows, lam):
        if not t:
            continue
        if len(coeffs) != dim or kind not in (EQ, GE, GT):
            raise ValueError(f"not a row in {dim} variables: {(coeffs, rhs, kind)!r}")
        if kind != EQ and t < 0:
            return False
        for i, c in enumerate(coeffs):
            normal[i] += t * c
        total += t * rhs
        strict = strict or kind == GT
    return not any(normal) and (total > 0 or (total == 0 and strict))


def as_fractions(point: tuple) -> tuple:
    """The coordinates of an exact point ``(nums, den)`` as Fractions."""
    nums, den = point
    return tuple(Fraction(n, den) for n in nums)


# -- affine flats ---------------------------------------------------------


@dataclass(frozen=True)
class AffineFlat:
    """Nonempty solution set of a linear system, in canonical integer form.

    ``rref`` is the reduced row-echelon form of the augmented system with
    every row scaled to a primitive integer vector (gcd 1) whose pivot is
    positive, rows in pivot-column order.  It is a canonical key for the
    flat: two hyperplane collections cut out the same flat exactly when
    their reduced systems agree, and the codimension is the number of
    rows.  ``pivots`` holds the rows' pivot columns.  :func:`meet` is the
    one operation that builds it, from the ambient ``AffineFlat(dim, (), ())``.
    """

    dim: int
    rref: tuple
    pivots: tuple

    @property
    def codim(self) -> int:
        return len(self.rref)

    def __repr__(self) -> str:
        return f"AffineFlat(dim={self.dim}, codim={self.codim})"


def _primitive(row: list) -> list:
    """The row divided by the gcd of its entries (unchanged if all zero)."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _residual(flat: AffineFlat, normal: Sequence[int], rhs: int) -> list:
    """The row ``(normal, rhs)`` eliminated against each reduced row's
    pivot, fraction-free.  It is zero in every pivot column, and zero
    throughout exactly when the row lies in the span of the reduced
    rows, since no nonzero combination of them vanishes on every pivot.
    Raises ``ValueError`` for a normal of another dimension."""
    if len(normal) != flat.dim:
        raise ValueError("hyperplane dimension mismatch")
    row = [*normal, rhs]
    for col, prow in zip(flat.pivots, flat.rref):
        f = row[col]
        if f:
            p = prow[col]
            for j, b in enumerate(prow):
                row[j] = p * row[j] - f * b
    return row


def meet(flat: AffineFlat, normal: Sequence[int], rhs: int) -> Optional[AffineFlat]:
    """The intersection of ``flat`` with the hyperplane ``normal . x = rhs``
    (integer data): ``flat`` itself when it lies on the hyperplane, None
    when the two are disjoint.

    Otherwise the residual of the row becomes a new reduced row: made
    primitive with a positive pivot, its pivot column cleared from the
    other rows, and inserted in pivot-column order.
    """
    row = _residual(flat, normal, rhs)
    col = next((c for c, x in enumerate(row) if x), None)
    if col is None:
        return flat
    if col == flat.dim:
        return None
    row = _primitive(row if row[col] > 0 else [-x for x in row])
    p = row[col]
    rref = []
    for prow in flat.rref:
        f = prow[col]
        if f:
            # prow is zero in the new pivot column afterwards, and row is
            # zero in prow's pivot column, so that pivot keeps its column and sign
            prow = tuple(_primitive([p * a - f * b for a, b in zip(prow, row)]))
        rref.append(prow)
    at = bisect(flat.pivots, col)
    rref.insert(at, tuple(row))
    pivots = (*flat.pivots[:at], col, *flat.pivots[at:])
    return AffineFlat(flat.dim, tuple(rref), pivots)


def intersect_hyperplanes(dim: int, rows: Iterable[tuple]) -> Optional[AffineFlat]:
    """Exact intersection of hyperplanes ``normal . x = rhs`` with integer
    ``normal`` and ``rhs``, one :func:`meet` at a time.

    No rows yields the ambient space; an inconsistent system yields None.
    """
    if dim > MAX_DIM:
        raise ValueError(f"dimension {dim} exceeds the supported bound {MAX_DIM}")
    rows = list(rows)
    if any(len(normal) != dim for normal, _ in rows):
        raise ValueError("hyperplane dimension mismatch")
    flat = AffineFlat(dim, (), ())
    for normal, rhs in rows:
        flat = meet(flat, normal, rhs)
        if flat is None:
            return None
    return flat


def flat_contains(flat: AffineFlat, normal: Sequence[int], rhs: int) -> bool:
    """Whether every point of the flat lies on the hyperplane
    ``normal . x = rhs`` (integer data)."""
    return not any(_residual(flat, normal, rhs))


def contains_flat(outer: AffineFlat, inner: AffineFlat) -> bool:
    """Whether ``outer`` contains ``inner``."""
    return not any(any(_residual(inner, row[:-1], row[-1])) for row in outer.rref)


def matrix_rank(rows: Iterable[Sequence[int]]) -> int:
    """Rank over the rationals of a collection of integer vectors: the
    codimension of the subspace they cut out as normals."""
    rows = list(rows)
    flat = AffineFlat(len(rows[0]) if rows else 0, (), ())
    for row in rows:
        flat = meet(flat, row, 0)
    return flat.codim
