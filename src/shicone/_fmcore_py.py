"""Exact rational feasibility kernel.

Decides systems of linear equalities and strict/non-strict inequalities
over the rationals by Fourier-Motzkin elimination, and extracts an exact
witness by back-substitution.  Everything runs on Python integers, and
the witness is returned, unchecked, as an integer numerator vector with
a common positive denominator.

Stage 1 pivots on an equality coefficient of least absolute value, made
positive by negating the equality; stage 2 is Fourier-Motzkin on the
inequalities.  Combined rows are built only by ``_eliminate``, and
infeasibility is decided only in ``_reduce_add``, which rejects a
contradictory constant row; a constant equality ``0 = c`` left by stage
1 enters it as the rows ``0 >= c`` and ``0 >= -c``.  Once one free
variable ``x_u`` is left, stage 2 keeps only its tightest lower and
tightest upper bound: the carried rows and the combinations on the
variable just eliminated are ranked by two numbers of each, its ``x_u``
coefficient and right-hand side, and only the winners are built, so the
last combination, lower times upper, is a single built pair that
``_reduce_add`` decides.  Stage 3 back-substitutes in the witness's own
form ``(nums, den)``: ``_assign`` reduces each value and moves the
witness to the lcm of its denominator and the value's, so the witness
stays in lowest terms.

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

    The last free variable gets only its tightest lower and upper bound,
    which are all that the last combination and back-substitution read,
    so answers and witnesses are those of the full elimination.
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
    k = None
    pos = neg = ()
    while len(remaining) > 1:
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
        if len(remaining) == 1:
            break
        for pc, prhs, pstrict in pos:
            for nc, nrhs, nstrict in neg:
                coeffs, rhs = _eliminate(nc, nrhs, pc, prhs, k)
                if _reduce_add(active, coeffs, rhs, pstrict or nstrict) is False:
                    return None
    if remaining:
        # The last free variable x_u, left by eliminating x_k or free from
        # the start (pos and neg then empty).  Each carried row and each
        # (pos, neg) combination on x_k is a bound a*x_u >= r (> if strict)
        # from below if a > 0, from above if a < 0.  Only the tightest of
        # each side is kept, all that the last combination and back-
        # substitution read: a candidate beats the best (A, R, S) of its
        # side when r*A - R*a is > 0 below or < 0 above, or when it is 0
        # and the candidate is strict but not the best (back-substitution's
        # tie rule).  A best is (a, r, strict, row, pair): a carried row,
        # or the pair whose combination is built, by _eliminate, only if it
        # wins.  A constant combination 0 >= r with r < 0 holds either way;
        # one with r >= 0 is built and left to _reduce_add, which rejects
        # all of them but the closed 0 >= 0.  The tests stay written out per
        # side and inline: one shared [lower, upper] list in a helper
        # measured 2-4% slower on the small systems of the rank-3 suites.
        u = remaining[0]
        low = high = None
        for coeffs, (r, strict) in active.items():
            a = coeffs[u]
            if a > 0:
                if low is not None:
                    d = r * low[0] - low[1] * a
                    if d < 0 or (d == 0 and (low[2] or not strict)):
                        continue
                low = (a, r, strict, (coeffs, r, strict), None)
            else:
                if high is not None:
                    d = r * high[0] - high[1] * a
                    if d > 0 or (d == 0 and (high[2] or not strict)):
                        continue
                high = (a, r, strict, (coeffs, r, strict), None)
        for pc, prhs, pstrict in pos:
            p = pc[k]
            pu = pc[u]
            for nc, nrhs, nstrict in neg:
                q = nc[k]
                a = p * nc[u] - q * pu
                r = p * nrhs - q * prhs
                strict = pstrict or nstrict
                if a > 0:
                    if low is not None:
                        d = r * low[0] - low[1] * a
                        if d < 0 or (d == 0 and (low[2] or not strict)):
                            continue
                    low = (a, r, strict, None, (nc, nrhs, pc, prhs))
                elif a:
                    if high is not None:
                        d = r * high[0] - high[1] * a
                        if d > 0 or (d == 0 and (high[2] or not strict)):
                            continue
                    high = (a, r, strict, None, (nc, nrhs, pc, prhs))
                elif r >= 0:
                    if _reduce_add({}, *_eliminate(nc, nrhs, pc, prhs, k), strict) is False:
                        return None
        # The winners as rows, lower first, and their one combination.
        bounds = []
        if low is not None:
            low = low[3] or (*_eliminate(*low[4], k), low[2])
            bounds.append(low)
        if high is not None:
            high = high[3] or (*_eliminate(*high[4], k), high[2])
            bounds.append(high)
        stages.append((u, bounds))
        if low is not None and high is not None:
            coeffs, rhs = _eliminate(high[0], high[1], low[0], low[1], u)
            if _reduce_add({}, coeffs, rhs, low[2] or high[2]) is False:
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
