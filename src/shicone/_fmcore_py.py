"""Exact rational feasibility kernel.

Decides systems of linear equalities and strict/non-strict inequalities
over the rationals by Fourier-Motzkin elimination, and extracts an exact
witness by back-substitution.  Everything runs on Python integers:
elimination on integer rows, back-substitution on reduced
numerator/denominator pairs, and the witness is returned as an integer
numerator vector with a common positive denominator.

Row format: ``(coeffs, rhs, kind)`` with integer ``coeffs``/``rhs`` and
``kind`` one of EQ, GE, GT, meaning ``coeffs . x (= | >= | >) rhs``.
"""

from __future__ import annotations

from math import gcd, lcm

EQ, GE, GT = 0, 1, 2

__all__ = ["EQ", "GE", "GT", "solve"]


def solve(dim, rows):
    """Feasibility of an integer constraint system in ``dim`` variables.

    Returns ``(nums, den)`` with ``den > 0`` such that ``x_i = nums[i]/den``
    satisfies every row exactly, or ``None`` if the system is infeasible.
    Infeasibility is established by elimination reaching a contradictory
    constant constraint.
    """
    eqs = []
    ineqs = []
    for coeffs, rhs, kind in rows:
        coeffs = list(coeffs)
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
    pivots = []  # (var, eq_coeffs, eq_rhs) in elimination order
    for _ in range(len(eqs)):
        eqs = [e for e in eqs if e is not None]
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
        ec, erhs = eqs[idx]
        eqs[idx] = None
        pivots.append((k, ec[:], erhs))
        eqs = [
            None if e is None else _subst_eq(e, ec, erhs, k) for e in eqs
        ]
        new_ineqs = []
        for row in ineqs:
            row = _subst_ineq(row, ec, erhs, k)
            if row is None:
                continue
            if row is False:
                return None
            new_ineqs.append(row)
        ineqs = new_ineqs
    for e in eqs:
        if e is not None and any(e[0]):
            raise AssertionError("equality left unpivoted")
        if e is not None and e[1] != 0:
            return None  # 0 = nonzero

    # Stage 2: Fourier-Motzkin on the remaining inequalities.
    active = {}
    for coeffs, rhs, strict in ineqs:
        result = _reduce_add(active, coeffs, rhs, strict)
        if result is False:
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
            cp = pc[k]
            for nc, nrhs, nstrict in neg:
                cn = -nc[k]
                coeffs = [cn * a + cp * b for a, b in zip(pc, nc)]
                rhs = cn * prhs + cp * nrhs
                if _reduce_add(active, coeffs, rhs, pstrict or nstrict) is False:
                    return None

    # Stage 3: back-substitution, FM stages in reverse then equality
    # pivots.  Each value is a reduced pair num[k]/den[k] with den[k] > 0;
    # a variable no row constrains keeps 0/1.
    num = [0] * dim
    den = [1] * dim
    for k, bounds in reversed(stages):
        lo = hi = None  # (num, den > 0, strict)
        for coeffs, rhs, strict in bounds:
            bn, bd = _solve_for(coeffs, rhs, k, num, den)
            if coeffs[k] > 0:
                if lo is None or _beats(bn, bd, strict, lo, 1):
                    lo = (bn, bd, strict)
            elif hi is None or _beats(bn, bd, strict, hi, -1):
                hi = (bn, bd, strict)
        num[k], den[k] = _pick(lo, hi)
    for k, ec, erhs in reversed(pivots):
        num[k], den[k] = _reduced(*_solve_for(ec, erhs, k, num, den))

    common = lcm(*den)
    nums = tuple(n * (common // d) for n, d in zip(num, den))
    den = common

    # Exact integer re-check of the witness against the original rows.
    for coeffs, rhs, kind in rows:
        lhs = sum(c * x for c, x in zip(coeffs, nums))
        r = rhs * den
        if kind == EQ:
            ok = lhs == r
        elif kind == GE:
            ok = lhs >= r
        else:
            ok = lhs > r
        if not ok:
            raise AssertionError("witness failed exact re-substitution")
    return nums, den


def _subst_eq(e, ec, erhs, k):
    """Eliminate variable k from equality e using pivot equality ec."""
    coeffs, rhs = e
    a = coeffs[k]
    if not a:
        return (coeffs, rhs)
    p = ec[k]
    out = [p * c - a * d for c, d in zip(coeffs, ec)]
    return (out, p * rhs - a * erhs)


def _subst_ineq(row, ec, erhs, k):
    """Eliminate variable k from an inequality using pivot equality ec.

    Returns the new row, None if it became trivially true, or False if it
    became contradictory.
    """
    coeffs, rhs, strict = row
    a = coeffs[k]
    if not a:
        return row
    p = ec[k]
    s = abs(p)
    t = -a if p > 0 else a  # multiplier for the equality row
    out = [s * c + t * d for c, d in zip(coeffs, ec)]
    new_rhs = s * rhs + t * erhs
    if not any(out):
        if new_rhs < 0 or (new_rhs == 0 and not strict):
            return None
        return False
    return (out, new_rhs, strict)


def _reduce_add(active, coeffs, rhs, strict):
    """gcd-reduce a row and merge it into the active set.

    Keeps only the stronger of two rows with identical left-hand side.
    Returns False when the row is a contradictory constant, True otherwise.
    """
    g = 0
    for c in coeffs:
        if c:
            g = gcd(g, c)
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


def _solve_for(coeffs, rhs, k, num, den):
    """The ``x_k`` with ``coeffs . x = rhs`` when every other ``x_j`` is
    ``num[j]/den[j]``, as a pair ``(n, d)`` with ``d > 0``."""
    d = 1
    for j, a in enumerate(coeffs):
        if a and j != k:
            d = lcm(d, den[j])
    n = rhs * d
    for j, a in enumerate(coeffs):
        if a and j != k:
            n -= a * num[j] * (d // den[j])
    c = coeffs[k]
    return (n, d * c) if c > 0 else (-n, -d * c)


def _beats(bn, bd, strict, old, sign):
    """Whether bound ``bn/bd`` is tighter than ``old`` on the side ``sign``.

    ``sign`` is 1 for lower bounds (larger is tighter) and -1 for upper
    bounds; at equal values a strict bound beats a non-strict one.
    """
    on, od, ostrict = old
    t = (bn * od - on * bd) * sign
    return t > 0 or (t == 0 and strict > ostrict)


def _reduced(n, d):
    """``n/d`` in lowest terms, for ``d > 0``."""
    g = gcd(n, d)
    return n // g, d // g


def _pick(lo, hi):
    """A value in the interval bounded by optional ``(num, den, strict)``
    pairs, as a reduced ``(num, den)`` pair."""
    if lo is None and hi is None:
        return 0, 1
    if hi is None:
        return _reduced(lo[0] + lo[1], lo[1])
    if lo is None:
        return _reduced(hi[0] - hi[1], hi[1])
    ln, ld, ls = lo
    hn, hd, hs = hi
    t = ln * hd - hn * ld
    if t < 0:
        return _reduced(ln * hd + hn * ld, 2 * ld * hd)
    if t == 0 and not ls and not hs:
        return _reduced(ln, ld)
    raise AssertionError("empty interval after elimination")
