"""Exact rational linear geometry: feasibility and affine flats.

Everything is exact; there is no floating point anywhere and no
tolerances.  Points and flats are stored in integers, in the formats
this module defines:

* an exact point is a pair ``(nums, den)`` of an integer numerator
  vector and a positive common denominator, the form the feasibility
  kernel returns;
* an :class:`AffineFlat` holds primitive integer reduced rows, an exact
  basepoint and primitive integer direction vectors, produced by
  fraction-free Gauss-Jordan elimination.

Feasibility of mixed strict and non-strict systems is decided by
Fourier-Motzkin elimination with exact witness extraction, in the
integer kernel ``_fmcore_py``.  :func:`feasible_rows` is the one entry
to the kernel: it takes integer rows (a rational system enters with its
denominators cleared) and returns the kernel's ``(nums, den)`` witness;
:func:`as_fractions` is the one conversion of a point to ``Fraction``
coordinates.

Ambient dimension is capped at 4, in :func:`feasible_rows` and
:func:`intersect_hyperplanes` alike: open cones of the rank <= 4 Weyl
groups are the only customers, and the cap keeps elimination blow-up
irrelevant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from . import _fmcore_py as _fmcore

# Kept as a constant so benchmark records still name the kernel they timed.
KERNEL_BACKEND = "pure-python"

EQ, GE, GT = _fmcore.EQ, _fmcore.GE, _fmcore.GT

MAX_DIM = 4


def feasible_rows(dim: int, rows) -> Optional[tuple]:
    """Feasibility of integer rows ``(coeffs, rhs, kind)`` in ``dim``
    variables, ``kind`` one of EQ, GE, GT.

    Returns an exact interior point ``(nums, den)``, meaning
    ``x_i = nums[i] / den`` with ``den > 0``, or None if infeasible.
    Raises ``ValueError`` for ``dim > MAX_DIM`` or a row of another
    dimension.
    """
    if dim > MAX_DIM:
        raise ValueError(f"dimension {dim} exceeds the supported bound {MAX_DIM}")
    return _fmcore.solve(dim, rows)


def as_fractions(point: tuple) -> tuple:
    """The coordinates of an exact point ``(nums, den)`` as Fractions."""
    nums, den = point
    return tuple(Fraction(n, den) for n in nums)


# -- affine flats ---------------------------------------------------------


@dataclass(frozen=True)
class AffineFlat:
    """Solution set of a linear system, in canonical integer form.

    ``rref`` is the reduced row-echelon form of the augmented system with
    every row scaled to a primitive integer vector (gcd 1) whose pivot is
    positive.  It is a canonical key for the flat: two hyperplane
    collections cut out the same flat exactly when their reduced systems
    agree.  ``basepoint`` is an exact point ``(nums, den)`` of the flat
    and ``directions`` are primitive integer vectors spanning its
    direction space.  The empty flat has no basepoint and is encoded by a
    single contradictory row.
    """

    dim: int
    basepoint: Optional[tuple]
    directions: tuple
    rref: tuple

    @property
    def is_empty(self) -> bool:
        return self.basepoint is None

    @property
    def codim(self) -> int:
        if self.is_empty:
            raise ValueError("the empty flat has no codimension")
        return self.dim - len(self.directions)

    def __repr__(self) -> str:
        if self.is_empty:
            return f"AffineFlat(dim={self.dim}, empty)"
        return f"AffineFlat(dim={self.dim}, codim={self.codim})"


def _primitive(row: list) -> list:
    """The row divided by the gcd of its entries (unchanged if all zero)."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _row_reduce(work: list, ncols: int) -> list:
    """Fraction-free Gauss-Jordan elimination of integer rows, in place.

    Reduces columns ``0 .. ncols-1``; rows stay primitive after every
    step, so coefficients stay small.  Returns the pivot columns; the
    pivot rows come first, in that order, with every other row zero in
    each pivot column.
    """
    pivot_cols = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        prow = work[r]
        p = prow[col]
        for i in range(len(work)):
            f = work[i][col]
            if i != r and f:
                work[i] = _primitive([p * a - f * b for a, b in zip(work[i], prow)])
        pivot_cols.append(col)
        r += 1
    return pivot_cols


def intersect_hyperplanes(dim: int, rows: Iterable[tuple]) -> AffineFlat:
    """Exact intersection of hyperplanes ``normal . x = rhs`` with integer
    ``normal`` and ``rhs``.

    No rows yields the ambient space; an inconsistent system yields the
    empty flat.
    """
    if dim > MAX_DIM:
        raise ValueError(f"dimension {dim} exceeds the supported bound {MAX_DIM}")
    work = []
    for normal, rhs in rows:
        if len(normal) != dim:
            raise ValueError("hyperplane dimension mismatch")
        work.append(_primitive([*normal, rhs]))
    pivot_cols = _row_reduce(work, dim)
    r = len(pivot_cols)
    if any(row[dim] for row in work[r:]):
        return empty_flat(dim)

    rref = tuple(
        tuple(row if row[col] > 0 else [-x for x in row])
        for row, col in zip(work, pivot_cols)
    )
    den = lcm(*(row[col] for row, col in zip(rref, pivot_cols)))
    nums = [0] * dim
    for row, col in zip(rref, pivot_cols):
        nums[col] = row[dim] * (den // row[col])
    g = gcd(den, *nums)
    basepoint = (tuple(x // g for x in nums), den // g)
    directions = []
    for f in range(dim):
        if f in pivot_cols:
            continue
        v = [0] * dim
        v[f] = den
        for row, col in zip(rref, pivot_cols):
            v[col] = -row[f] * (den // row[col])
        directions.append(tuple(_primitive(v)))
    return AffineFlat(dim, basepoint, tuple(directions), rref)


def empty_flat(dim: int) -> AffineFlat:
    return AffineFlat(dim, None, (), ((0,) * dim + (1,),))


def full_space(dim: int) -> AffineFlat:
    return intersect_hyperplanes(dim, [])


def _on_hyperplane(flat: AffineFlat, normal: Sequence[int], rhs: int) -> bool:
    nums, den = flat.basepoint
    if sum(c * x for c, x in zip(normal, nums)) != rhs * den:
        return False
    return all(sum(c * x for c, x in zip(normal, d)) == 0 for d in flat.directions)


def flat_contains(flat: AffineFlat, normal: Sequence[int], rhs: int) -> bool:
    """Whether every point of a nonempty flat lies on the hyperplane
    ``normal . x = rhs`` (integer data)."""
    if flat.is_empty:
        raise ValueError("empty flat")
    return _on_hyperplane(flat, normal, rhs)


def contains_flat(outer: AffineFlat, inner: AffineFlat) -> bool:
    """Whether ``outer`` contains ``inner``, both nonempty."""
    if outer.is_empty or inner.is_empty:
        raise ValueError("empty flat")
    return all(_on_hyperplane(inner, row[:-1], row[-1]) for row in outer.rref)


def matrix_rank(rows: Iterable[Sequence[int]]) -> int:
    """Rank over the rationals of a collection of integer vectors."""
    work = [list(row) for row in rows]
    if not work:
        return 0
    return len(_row_reduce(work, len(work[0])))
