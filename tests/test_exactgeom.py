import hashlib
import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from conftest import RELATIONS, get_rs, holds, relation_row, weyl_matrix
from shicone import exactgeom
from shicone.exactgeom import (
    EQ,
    GE,
    GT,
    as_fractions,
    check_farkas,
    check_witness,
    contains_flat,
    feasible_rows,
    flat_contains,
    intersect_hyperplanes,
    matrix_rank,
    meet,
)
from shicone.rootsys import (
    act,
    element_from_word,
    inversion_set,
    root_index,
    root_poset,
    weyl_group,
)
from shicone.shi import (
    complement_of_inversions,
    cone_rows,
    flats_in_cone,
    region_rows,
)


# -- feasibility ----------------------------------------------------------------


def test_open_interval():
    w = feasible_rows(1, [((1,), 0, GT), ((-1,), -1, GT)])
    assert w is not None and 0 < as_fractions(w)[0] < 1


def test_point_system():
    w = feasible_rows(2, [((1, 0), 3, EQ), ((0, 1), -2, EQ)])
    assert w == ((3, -2), 1)


def test_infeasible_strict_point():
    assert feasible_rows(1, [((1,), 0, GT), ((-1,), 0, GT)]) is None
    assert feasible_rows(1, [((1,), 0, GE), ((-1,), 0, GE)]) == ((0,), 1)


def test_comparable_pair_misses_cone():
    # in B2: both level-1 hyperplanes of a comparable pair cannot meet the
    # open dominant cone
    rs = get_rs("B2")
    idx = root_index(rs)
    for low, high in [((1, 0), (1, 1)), ((0, 1), (1, 1)), ((1, 1), (2, 1)), ((1, 0), (2, 1))]:
        rows = [
            (low, 1, EQ),
            (high, 1, EQ),
            ((1, 0), 0, GT),
            ((0, 1), 0, GT),
        ]
        assert feasible_rows(2, rows) is None
    assert idx  # touch fixture


def test_triple_point_witness():
    # three level hyperplanes through one point: a=1, b=1, a+b=2
    w = feasible_rows(2, [((1, 0), 1, EQ), ((0, 1), 1, EQ), ((1, 1), 2, EQ)])
    assert w == ((1, 1), 1)


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        feasible_rows(1, [((1,), 0, GT), ((1, 2), 0, GT)])


def test_dimension_cap():
    with pytest.raises(ValueError):
        feasible_rows(5, [((1, 0, 0, 0, 0), 0, GT)])


def test_zero_normal_constraints():
    assert feasible_rows(2, [((0, 0), 0, GE)]) is not None
    assert feasible_rows(2, [((0, 0), 0, GT)]) is None
    assert feasible_rows(2, [((0, 0), 1, EQ), ((1, 0), 0, GT)]) is None


def test_unbounded_directions():
    w = feasible_rows(2, [((1, 0), 5, GE)])
    assert w is not None and as_fractions(w)[0] >= 5


def test_rational_coefficients():
    # x/2 + y/3 = 5/6 with its denominators cleared, and x > y
    rows = [((3, 2), 5, EQ), ((1, -1), 0, GT)]
    w = feasible_rows(2, rows)
    assert w is not None
    x, y = as_fractions(w)
    assert Fraction(1, 2) * x + Fraction(1, 3) * y == Fraction(5, 6)
    assert x > y


def _random_system(rng, dim):
    rows = []
    for _ in range(rng.randint(1, 8)):
        normal = [rng.randint(-4, 4) for _ in range(dim)]
        rel = rng.choice(RELATIONS)
        rows.append(relation_row(normal, rel, rng.randint(-3, 3)))
    return rows


def test_witness_resubstitution_random():
    rng = random.Random(11)
    found = 0
    for _ in range(300):
        dim = rng.randint(1, 4)
        rows = _random_system(rng, dim)
        w = feasible_rows(dim, rows)
        if w is not None:
            found += 1
            point = as_fractions(w)
            assert all(holds(row, point) for row in rows)
    assert found > 50


def test_sampler_agreement():
    # random rational sampling can only find points of feasible systems,
    # so every sampler hit must come with a kernel witness
    rng = random.Random(23)
    agreements = 0
    for _ in range(200):
        dim = rng.randint(1, 3)
        rows = _random_system(rng, dim)
        hit = None
        for _ in range(60):
            point = tuple(
                Fraction(rng.randint(-24, 24), rng.randint(1, 8)) for _ in range(dim)
            )
            if all(holds(row, point) for row in rows):
                hit = point
                break
        if hit is not None:
            assert feasible_rows(dim, rows) is not None
            agreements += 1
    assert agreements > 40


# sha256 of repr() of the kernel's answers to the systems below: any
# change to an answer or to a witness changes it.
KERNEL_DIGEST = "f97c8cb99a721a62c6a31d24ecdde2551acd49dda590622157b315dce893f7c9"


def test_kernel_answers_pinned():
    solve = exactgeom._fmcore.solve
    rng = random.Random(37)
    kinds = [0, 1, 2]
    outputs = []
    for _ in range(500):
        dim = rng.randint(1, 4)
        rows = [
            (
                tuple(rng.randint(-5, 5) for _ in range(dim)),
                rng.randint(-4, 4),
                rng.choice(kinds),
            )
            for _ in range(rng.randint(1, 9))
        ]
        outputs.append(solve(dim, rows))
    big = 1 << 45
    rows = [((big, -big + 3), 1, 2), ((-big, big), 0, 1), ((0, 1), -5, 2)]
    outputs.append(solve(2, rows))
    rows = [((1 << 62, 1), 0, 2), ((-(1 << 62), 1), 1, 1)]
    outputs.append(solve(2, rows))
    assert sum(out is None for out in outputs) == 269
    assert hashlib.sha256(repr(outputs).encode()).hexdigest() == KERNEL_DIGEST
    # every witness is in lowest terms
    assert all(gcd(den, *nums) == 1 for nums, den in filter(None, outputs))
    # A closed degenerate interval: 3x >= 1 and -3x >= -1 pin x to 1/3.
    rows = [((3,), 1, exactgeom.GE), ((-3,), -1, exactgeom.GE)]
    assert solve(1, rows) == ((1,), 3)


def test_back_substitution_rescales_assigned_coordinates():
    # y in [1, 1] is set first, y = 1 on the denominator 1; then the
    # equality 3x - 6y = -4 gives x = 2/3, and y is rescaled to 3/3.
    solve = exactgeom._fmcore.solve
    rows = [((0, 1), 1, GE), ((0, -1), -1, GE), ((3, -6), -4, EQ)]
    assert solve(2, rows) == ((2, 3), 3)
    # y in (0, 1) gives y = 1/2 and z = 2, then 5x = 1 + y + 2z gives
    # x = 11/10: the denominator grows 1 -> 2 -> 10 and y = 5/10.
    rows = [
        ((0, 1, 0), 0, GT),
        ((0, -1, 0), -1, GT),
        ((0, 0, 1), 2, GE),
        ((0, 0, -1), -2, GE),
        ((5, -1, -2), 1, EQ),
    ]
    assert solve(3, rows) == ((11, 5, 20), 10)


def _product_systems(rs, w):
    """Kernel systems for the cone wC, built from the row builders: each
    dominant region of the deletion and each ceiling probe (one root of
    the region's ideal pinned to 1), as the constructions pose them, and
    each antichain's flat equalities against the cone's walls.  The flat
    builder poses the flat's face rows instead of the last kind; those
    systems stay here as a pin of the kernel on equality systems."""
    E = complement_of_inversions(rs, w)
    sub = root_poset(rs).restrict(E)
    cone = cone_rows(rs, w)
    systems = []
    for A in sub.antichains():
        ideal = sub.ideal_generated(A)
        base = region_rows(rs, E, ideal)
        systems.append(base)
        for b in sorted(ideal):
            rows = base.copy()
            rows[rs.rank + E.index(b)] = (rs.positive_roots[b], 1, EQ)
            systems.append(rows)
        gens = sorted(w.perm[i] for i in A)
        systems.append([(rs.positive_roots[g], 1, EQ) for g in gens] + cone)
    return systems


# sha256 of repr() of the kernel's answers to the product systems of
# every B3 cone and three seeded cones of each rank-4 type.
PRODUCT_DIGEST = "16e88be854db4400780dc48784d7a10db9b8d77c844291cc24c320ba2c80f1da"


def test_kernel_answers_on_product_systems_pinned():
    rng = random.Random(41)
    cones = [(get_rs("B3"), w) for w in weyl_group(get_rs("B3"))]
    for name in ("A4", "B4", "C4", "D4", "F4"):
        rs = get_rs(name)
        cones += [(rs, w) for w in rng.sample(weyl_group(rs), 3)]
    systems = [(rs.rank, rows) for rs, w in cones for rows in _product_systems(rs, w)]
    assert len(systems) == 3945
    assert sum(any(kind == EQ for *_, kind in rows) for _, rows in systems) == 3225
    outputs = [exactgeom._fmcore.solve(dim, rows) for dim, rows in systems]
    assert sum(out is None for out in outputs) == 1763
    assert hashlib.sha256(repr(outputs).encode()).hexdigest() == PRODUCT_DIGEST


def _recording(monkeypatch, name):
    """Replace the kernel helper ``name`` by a wrapper that appends each
    return value to the list it returns."""
    real = getattr(exactgeom._fmcore, name)
    results = []

    def wrapper(*args):
        results.append(real(*args))
        return results[-1]

    monkeypatch.setattr(exactgeom._fmcore, name, wrapper)
    return results


def _random_rows(rng, dim, kinds):
    return [
        (tuple(rng.randint(-3, 3) for _ in range(dim)), rng.randint(-3, 3), rng.choice(kinds))
        for _ in range(rng.randint(2, 8))
    ]


def test_fourier_motzkin_combines_through_eliminate(monkeypatch):
    # Every combined row reaches _reduce_add from _eliminate: each row
    # _reduce_add receives is an input row or a row _eliminate returned,
    # on systems without equalities or constant rows in which every
    # variable has a lower and an upper bound.  Such a system need not
    # combine at all: the last free variable keeps only its tightest
    # bounds, and in the pinned system both are input rows (x1 goes
    # first, and its one combination, x0 <= 1, loses to x0 <= -5).
    made = _recording(monkeypatch, "_eliminate")
    received = []
    reduce_add = exactgeom._fmcore._reduce_add

    def receiving(active, coeffs, rhs, strict):
        received.append(coeffs)
        return reduce_add(active, coeffs, rhs, strict)

    monkeypatch.setattr(exactgeom._fmcore, "_reduce_add", receiving)
    solve = exactgeom._fmcore.solve

    def combined_rows(rows):
        """The rows _reduce_add received that are not input rows, each
        checked to be a row _eliminate returned."""
        inputs = [coeffs for coeffs, *_ in rows]
        built = [coeffs for coeffs, _ in made]
        out = [c for c in received if not any(c is x for x in inputs)]
        assert all(any(c is x for x in built) for c in out), rows
        return out

    rows = [((1, 1), 0, GE), ((-2, -1), -1, GE), ((-1, 0), 5, GE)]
    assert solve(2, rows) == ((-12, 19), 2)
    assert made == [] and combined_rows(rows) == []
    made.clear()
    received.clear()
    rows = [((1, 0), 0, GT), ((0, 1), 0, GT), ((-1, -1), -1, GT)]
    assert solve(2, rows) is not None
    assert combined_rows(rows)
    rng = random.Random(43)
    solved = combined = 0
    while solved < 200:
        dim = rng.randint(1, 4)
        rows = _random_rows(rng, dim, [GE, GT])
        if not all(any(c) for c, *_ in rows) or not all(
            any(c[k] > 0 for c, *_ in rows) and any(c[k] < 0 for c, *_ in rows)
            for k in range(dim)
        ):
            continue
        made.clear()
        received.clear()
        solve(dim, rows)
        combined += len(combined_rows(rows))
        solved += 1
    assert combined


def test_infeasible_only_through_reduce_add(monkeypatch):
    results = _recording(monkeypatch, "_reduce_add")
    solve = exactgeom._fmcore.solve
    rng = random.Random(47)
    systems = [
        # the only contradictions are constant equalities left by stage 1
        (1, [((1,), 1, EQ), ((1,), 2, EQ)]),
        (2, [((1, 1), 1, EQ), ((2, 2), 3, EQ), ((1, 0), 0, GT)]),
    ]
    for _ in range(500):
        dim = rng.randint(1, 4)
        systems.append((dim, _random_rows(rng, dim, [EQ, GE, GT])))
    answers = []
    for dim, rows in systems:
        results.clear()
        answers.append(solve(dim, rows))
        assert (answers[-1] is None) == (False in results), rows
    assert answers[0] is None and answers[1] is None
    assert 100 < sum(a is None for a in answers) < 400


def test_last_variable_builds_only_its_tightest_bounds(monkeypatch):
    # Four lower and three upper bounds on x, each also in y; y in
    # [-20, 20] makes x the cheaper variable to eliminate.  The 12
    # combinations are 6 distinct lower and 6 distinct upper bounds on y,
    # the last free variable: only the tightest of each side is built,
    # plus their one combination.
    calls = _recording(monkeypatch, "_eliminate")
    rows = [((1, -i), -i * i, GT if i % 2 else GE) for i in (1, 2, 6, 7)]
    rows += [((-1, j), -3 * j, GE) for j in (3, 4, 5)]
    rows += [((0, 1), -20, GE), ((0, -1), -20, GE)]
    # y in [-4, 29/2] gives y = 21/4, then x in [13/2, 99/4] gives x = 125/8.
    assert exactgeom._fmcore.solve(2, rows) == ((125, 42), 8)
    assert len(calls) <= 3


def test_last_variable_strict_bound_wins_a_tie():
    # y in [1, 1] carried, and eliminating x gives 2y > 2 (first system)
    # or -2y > -2 (second): a strict bound equal in value to a closed one
    # must win, or the empty interval on y passes for the point y = 1.
    solve = exactgeom._fmcore.solve
    walls = [((0, 1), 1, GE), ((0, -1), -1, GE)]
    assert solve(2, walls + [((1, 1), 1, GT), ((-1, 1), 1, GE)]) is None
    assert solve(2, walls + [((1, -1), -1, GT), ((-1, -1), -1, GE)]) is None
    assert solve(2, walls + [((1, 1), 1, GE), ((-1, 1), 1, GE)]) == ((0, 1), 1)


# -- witness certificates ---------------------------------------------------------


def _moved_across_a_row(dim, rows, point):
    """The point with one numerator moved by ``den`` so that the Fraction
    reference finds a row violated, or None if no such move exists."""
    nums, den = point
    for i in range(dim):
        for step in (den, -den):
            moved = nums[:i] + (nums[i] + step,) + nums[i + 1 :]
            if not all(holds(r, [Fraction(n, den) for n in moved]) for r in rows):
                return moved, den
    return None


def test_feasible_rows_certifies_kernel_witness(monkeypatch):
    # the kernel's answer replaced by a proposal: an untouched answer
    # passes through as it is, a moved witness is refused
    solve = exactgeom._fmcore.solve
    proposed = []
    monkeypatch.setattr(exactgeom._fmcore, "solve", lambda dim, rows: proposed[-1])
    rows = [((1,), 0, GT), ((-1,), -1, GT)]
    proposed.append(((3,), 2))
    with pytest.raises(AssertionError, match="witness failed exact re-substitution"):
        feasible_rows(1, rows)
    rng = random.Random(53)
    refused = 0
    for _ in range(300):
        dim = rng.randint(1, 4)
        rows = _random_system(rng, dim)
        proposed.append(solve(dim, rows))
        assert feasible_rows(dim, rows) is proposed[-1]
        moved = proposed[-1] and _moved_across_a_row(dim, rows, proposed[-1])
        if moved:
            proposed.append(moved)
            with pytest.raises(AssertionError, match="witness failed exact re-substitution"):
                feasible_rows(dim, rows)
            refused += 1
    assert refused > 50


def test_feasible_rows_certifies_against_iterator_rows(monkeypatch):
    # a kernel that reads its rows and proposes x = -5: the rows must still
    # be there for the certification when they come as a one-shot iterator
    def propose(dim, rows):
        for _ in rows:
            pass
        return (-5,), 1

    monkeypatch.setattr(exactgeom._fmcore, "solve", propose)
    with pytest.raises(AssertionError, match="witness failed exact re-substitution"):
        feasible_rows(1, iter([((1,), 0, GT)]))


def test_check_witness_matches_fraction_reference(monkeypatch):
    # About a third of the rows are tight at the point: the row scaled by
    # den with its value as rhs, so each kind meets its boundary there.
    # The checker never reaches the kernel.
    monkeypatch.setattr(exactgeom._fmcore, "solve", None)
    rng = random.Random(59)
    boundary = set()
    accepted = 0
    for _ in range(20000):
        dim = rng.randint(1, 4)
        den = rng.randint(1, 6)
        nums = tuple(rng.randint(-12, 12) for _ in range(dim))
        point = [Fraction(n, den) for n in nums]
        rows = []
        for _ in range(rng.randint(1, 4)):
            coeffs = tuple(rng.randint(-4, 4) for _ in range(dim))
            kind = rng.choice((EQ, GE, GT))
            if rng.randrange(3):
                rows.append((coeffs, rng.randint(-6, 6), kind))
            else:
                value = sum(c * n for c, n in zip(coeffs, nums))
                rows.append((tuple(den * c for c in coeffs), value, kind))
                boundary.add((kind, holds(rows[-1], point)))
        expected = all(holds(r, point) for r in rows)
        assert check_witness(dim, rows, (nums, den)) == expected, (rows, nums, den)
        accepted += expected
    assert boundary == {(EQ, True), (GE, True), (GT, False)}
    assert 2000 < accepted < 18000


def test_check_witness_rejects_malformed_points():
    rows = [((1, 0), 0, GT), ((0, 1), 0, GE)]
    assert check_witness(2, rows, ((1, 1), 2))
    assert check_witness(0, [], ((), 1))
    # a point of the wrong length, or without a positive denominator
    assert not check_witness(2, rows, ((1,), 2))
    assert not check_witness(2, rows, ((1, 1, 1), 2))
    assert not check_witness(2, rows, ((1, 1), 0))
    assert not check_witness(2, rows, ((-1, -1), -2))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: check_witness(2, [((1,), 0, GT)], ((1, 1), 2)), "not a row in 2"),
        (lambda: check_witness(2, [((1, 0), 0, 3)], ((1, 1), 2)), "not a row in 2"),
        (lambda: feasible_rows(1, [((1,), 0, 3)]), "unknown constraint kind"),
        (lambda: intersect_hyperplanes(5, []), "exceeds the supported bound"),
        (lambda: intersect_hyperplanes(2, [((1, 0, 0), 1)]), "dimension mismatch"),
        (lambda: matrix_rank([(1, 0), (0, 1, 5)]), "dimension mismatch"),
        (
            lambda: flat_contains(intersect_hyperplanes(2, [((1, 0), 1)]), (1,), 1),
            "dimension mismatch",
        ),
    ],
    ids=[
        "witness-row-dim",
        "witness-row-kind",
        "kernel-row-kind",
        "flat-dim",
        "flat-normal",
        "rank-normal",
        "contains-normal",
    ],
)
def test_malformed_rows_raise(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# -- Farkas certificates ----------------------------------------------------------


def _positivity(dim):
    return [(tuple(int(i == j) for j in range(dim)), 0, GT) for i in range(dim)]


def _comparable_pairs(rs):
    rp = root_poset(rs)
    roots = rs.positive_roots
    n = len(roots)
    return [(roots[i], roots[j]) for i in range(n) for j in range(n) if i != j and rp.leq(i, j)]


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "G2", "B4", "F4"])
def test_farkas_accepts_certificate_families(name):
    rs = get_rs(name)
    n = rs.rank
    pairs = _comparable_pairs(rs)
    assert pairs
    for low, high in pairs:
        diff = [y - x for x, y in zip(low, high)]
        # a facet negative: low pinned to 1 while high stays below 1
        rows = _positivity(n) + [(low, 1, EQ), (tuple(-c for c in high), -1, GT)]
        assert check_farkas(n, rows, diff + [1, 1])
        # a comparable pair: both hyperplanes pinned to 1
        rows = _positivity(n) + [(low, 1, EQ), (high, 1, EQ)]
        assert check_farkas(n, rows, diff + [1, -1])
    # a cone-cut negative: an inversion b of w misses the open cone wC
    # (walls w(alpha_i)); the multipliers are minus the coordinates of w^-1 b
    cuts = 0
    for w in weyl_group(rs):
        winv = element_from_word(rs, reversed(w.word))
        m = weyl_matrix(rs, w)
        walls = [(tuple(m[k][i] for k in range(n)), 0, GT) for i in range(n)]
        for b in inversion_set(rs, w):
            coords = rs.positive_roots[b]
            lam = [-d for d in act(rs, winv, coords)] + [1]
            assert check_farkas(n, walls + [(coords, 1, EQ)], lam)
            cuts += 1
    assert cuts


def test_farkas_rejections():
    rows = [((1, 0), 0, GT), ((0, 1), 0, GT), ((1, 0), 1, EQ), ((-1, -1), -1, GT)]
    assert check_farkas(2, rows, [0, 1, 1, 1])
    # a negative multiplier on a GT row, and on a GE row
    assert not check_farkas(2, rows, [0, -1, -1, -1])
    ge = [((1, 0), 0, GE), ((-1, 0), 1, GE)]
    assert check_farkas(2, ge, [1, 1])
    assert not check_farkas(2, ge, [-1, -1])
    # normals that do not sum to zero
    assert not check_farkas(2, rows, [0, 0, 1, 1])
    assert not check_farkas(2, rows, [1, 1, 1, 1])
    # a negative rhs sum: x > 0 and -x > -1 are feasible together
    assert not check_farkas(1, [((1,), 0, GT), ((-1,), -1, GT)], [1, 1])
    # a zero rhs sum with only EQ and GE rows used
    assert not check_farkas(1, [((1,), 0, GE), ((-1,), 0, GE)], [1, 1])
    assert not check_farkas(1, [((1,), 1, EQ), ((1,), 1, EQ)], [1, -1])
    assert check_farkas(1, [((1,), 0, GT), ((-1,), 0, GE)], [1, 1])
    # a multiplier vector of the wrong length
    assert not check_farkas(2, rows, [0, 1, 1])
    assert not check_farkas(2, rows, [0, 1, 1, 1, 0])
    with pytest.raises(ValueError):
        check_farkas(2, [((1,), 0, GT)], [1])


def test_farkas_soundness():
    # an accepted certificate must leave both the kernel and rational
    # sampling without a point.  Mostly a closing row of multiplier 1
    # makes the normals sum to zero and the rhs sum to a small number,
    # so the checker is left to judge the signs and that sum.
    rng = random.Random(5)
    accepted = 0
    for _ in range(400):
        dim = rng.randint(1, 3)
        rows = []
        for _ in range(rng.randint(1, 5)):
            coeffs = tuple(rng.randint(-3, 3) for _ in range(dim))
            rows.append((coeffs, rng.randint(-3, 3), rng.choice((EQ, GE, GT))))
        lam = [rng.randint(-1, 3) for _ in rows]
        if rng.randint(0, 3):
            normal = tuple(
                -sum(t * coeffs[i] for (coeffs, _, _), t in zip(rows, lam)) for i in range(dim)
            )
            rhs = rng.randint(-1, 3) - sum(t * r for (_, r, _), t in zip(rows, lam))
            rows.append((normal, rhs, rng.choice((EQ, GE, GT))))
            lam.append(1)
        if not check_farkas(dim, rows, lam):
            continue
        accepted += 1
        assert feasible_rows(dim, rows) is None
        for _ in range(200):
            point = tuple(Fraction(rng.randint(-24, 24), rng.randint(1, 8)) for _ in range(dim))
            assert not all(holds(r, point) for r in rows)
    assert accepted > 40


# -- affine flats ------------------------------------------------------------------


def test_full_space():
    v = intersect_hyperplanes(3, [])
    assert v.codim == 0 and v.rref == ()


def test_b2_point_flat():
    flat = intersect_hyperplanes(2, [((1, 0), 1), ((0, 1), 1)])
    assert flat.codim == 2
    assert flat.rref == ((1, 0, 1), (0, 1, 1))
    assert flat_contains(flat, (1, 1), 2) and flat_contains(flat, (3, -1), 2)


def test_idempotent_intersection():
    once = intersect_hyperplanes(2, [((1, 0), 1)])
    twice = intersect_hyperplanes(2, [((1, 0), 1), ((1, 0), 1)])
    assert once == twice and once.codim == 1


def test_scaled_rows_same_flat():
    a = intersect_hyperplanes(2, [((1, 1), 1)])
    b = intersect_hyperplanes(2, [((2, 2), 2)])
    assert a == b
    # the reduced rows are a canonical key: permuting, duplicating and
    # rescaling (by either sign) the rows must not change the flat
    rng = random.Random(5)
    for _ in range(200):
        dim = rng.randint(1, 4)
        rows = [
            (tuple(rng.randint(-3, 3) for _ in range(dim)), rng.randint(-2, 2))
            for _ in range(rng.randint(1, 4))
        ]
        flat = intersect_hyperplanes(dim, rows)
        for _ in range(5):
            variant = rows + rng.sample(rows, rng.randint(1, len(rows)))
            rng.shuffle(variant)
            scaled = []
            for normal, rhs in variant:
                k = rng.choice([-3, -2, -1, 1, 2, 5])
                scaled.append((tuple(k * c for c in normal), k * rhs))
            assert intersect_hyperplanes(dim, scaled) == flat
        if flat is not None:
            for normal, rhs in rows:
                assert flat_contains(flat, normal, rhs)


def test_empty_intersection():
    assert intersect_hyperplanes(2, [((1, 0), 0), ((1, 0), 1)]) is None


def test_flat_contains_basics():
    h = intersect_hyperplanes(2, [((1, 0), 1)])
    assert flat_contains(h, (1, 0), 1)
    assert not flat_contains(h, (0, 1), 1)
    v = intersect_hyperplanes(2, [])
    assert not flat_contains(v, (1, 0), 1)


def test_b2_point_not_on_third_hyperplane():
    # the meeting point of the level-1 hyperplanes of the two simple roots
    # does not lie on the level-1 hyperplane of their sum
    point = intersect_hyperplanes(2, [((1, 0), 1), ((0, 1), 1)])
    assert not flat_contains(point, (1, 1), 1)
    assert flat_contains(point, (1, 1), 2)


def test_intersection_rows_all_contained():
    rng = random.Random(3)
    for _ in range(120):
        dim = rng.randint(1, 4)
        rows = [
            (tuple(rng.randint(-3, 3) for _ in range(dim)), rng.randint(-2, 2))
            for _ in range(rng.randint(0, 4))
        ]
        rows = [(n, r) for n, r in rows if any(n)]
        flat = intersect_hyperplanes(dim, rows)
        if flat is not None:
            for normal, rhs in rows:
                assert flat_contains(flat, normal, rhs)


def test_contains_flat():
    plane = intersect_hyperplanes(3, [((1, 0, 0), 1)])
    line = intersect_hyperplanes(3, [((1, 0, 0), 1), ((0, 1, 0), 0)])
    assert contains_flat(plane, line)
    assert not contains_flat(line, plane)
    assert contains_flat(intersect_hyperplanes(3, []), plane)


def _reference_geometry(flat):
    """An exact basepoint ``(nums, den)`` and direction vectors spanning
    the flat, solved from its reduced rows by back-substitution."""
    dim = flat.dim
    pivots = [next(c for c, x in enumerate(row) if x) for row in flat.rref]
    den = lcm(*(row[c] for row, c in zip(flat.rref, pivots)))
    nums = [0] * dim
    for row, c in zip(flat.rref, pivots):
        nums[c] = row[dim] * (den // row[c])
    directions = []
    for f in range(dim):
        if f in pivots:
            continue
        v = [0] * dim
        v[f] = den
        for row, c in zip(flat.rref, pivots):
            v[c] = -row[f] * (den // row[c])
        directions.append(v)
    return (nums, den), directions


def _reference_contains(flat, normal, rhs):
    """Containment as a point-and-directions test: the hyperplane holds
    the basepoint and is parallel to every direction."""
    (nums, den), directions = _reference_geometry(flat)
    if sum(c * x for c, x in zip(normal, nums)) != rhs * den:
        return False
    return all(sum(c * x for c, x in zip(normal, d)) == 0 for d in directions)


def _check_against_reference(flats, hyperplanes):
    for flat in flats:
        (nums, den), directions = _reference_geometry(flat)
        assert den > 0 and len(directions) == flat.dim - flat.codim
        for normal, rhs in hyperplanes:
            got = flat_contains(flat, normal, rhs)
            assert got == _reference_contains(flat, normal, rhs)
        for outer in flats:
            ref = all(_reference_contains(flat, r[:-1], r[-1]) for r in outer.rref)
            assert contains_flat(outer, flat) == ref


def test_containment_matches_basepoint_reference_random():
    rng = random.Random(41)
    hits = 0
    for _ in range(150):
        dim = rng.randint(1, 4)
        rows = [
            (tuple(rng.randint(-3, 3) for _ in range(dim)), rng.randint(-3, 3))
            for _ in range(rng.randint(0, 4))
        ]
        flats = [intersect_hyperplanes(dim, rows[:k]) for k in range(len(rows) + 1)]
        flats = [f for f in flats if f is not None]
        planes = [
            (tuple(rng.randint(-3, 3) for _ in range(dim)), rng.randint(-3, 3))
            for _ in range(6)
        ]
        # integer combinations of the rows contain the flat of all the rows
        for _ in range(4):
            ks = [rng.randint(-2, 2) for _ in rows]
            normal = tuple(sum(k * n[i] for k, (n, _) in zip(ks, rows)) for i in range(dim))
            planes.append((normal, sum(k * r for k, (_, r) in zip(ks, rows))))
        planes += rows
        _check_against_reference(flats, planes)
        hits += sum(flat_contains(f, n, r) for f in flats for n, r in planes)
    assert hits > 500


def test_containment_matches_basepoint_reference_rank4_cones():
    rng = random.Random(43)
    flats_seen = 0
    for name in ["A4", "B4", "C4", "D4", "F4"]:
        rs = get_rs(name)
        planes = [(r, k) for r in rs.positive_roots for k in (0, 1, 2)]
        for w in rng.sample(weyl_group(rs), 5):
            flats = [f.geometry for f in flats_in_cone(rs, complement_of_inversions(rs, w), w).flats]
            _check_against_reference(flats, planes)
            flats_seen += len(flats)
    assert flats_seen > 200


def _reference_row_reduce(rows, ncols):
    """Batch fraction-free Gauss-Jordan elimination, independent of
    :func:`meet`: every row is reduced by each pivot in turn, and rows
    stay primitive after every step.  Returns the pivot columns and the
    rows, the pivot rows first in that order."""

    def primitive(row):
        g = gcd(*row)
        return [x // g for x in row] if g > 1 else row

    work = [primitive(list(row)) for row in rows]
    pivot_cols = []
    for col in range(ncols):
        r = len(pivot_cols)
        piv = next((i for i in range(r, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        prow = work[r]
        p = prow[col]
        for i in range(len(work)):
            f = work[i][col]
            if i != r and f:
                work[i] = primitive([p * a - f * b for a, b in zip(work[i], prow)])
        pivot_cols.append(col)
    return pivot_cols, work


def _reference_rref(dim, rows):
    """The primitive reduced rows with positive pivots of the system
    ``normal . x = rhs``, or None if it is inconsistent."""
    pivot_cols, work = _reference_row_reduce([[*n, r] for n, r in rows], dim)
    if any(row[dim] for row in work[len(pivot_cols) :]):
        return None
    return tuple(
        tuple(row if row[col] > 0 else [-x for x in row])
        for row, col in zip(work, pivot_cols)
    )


def test_meet_matches_batch_elimination_reference():
    rng = random.Random(47)
    seen = {"inconsistent": 0, "contained": 0, "cut": 0}
    for _ in range(300):
        dim = rng.randint(1, 4)
        base = [
            (tuple(rng.randint(-3, 3) for _ in range(dim)), rng.randint(-3, 3))
            for _ in range(rng.randint(0, 4))
        ]
        rows = list(base)
        for normal, rhs in rng.sample(base, min(2, len(base))):
            k = rng.choice([-3, -2, -1, 2, 4])
            rows.append((tuple(k * c for c in normal), k * rhs))  # rescaled
            rows.append((normal, rhs + rng.choice([-1, 1])))  # parallel shift
            rows.append((normal, rhs))  # duplicate
        rng.shuffle(rows)
        for k in range(len(rows) + 1):
            ref = _reference_rref(dim, rows[:k])
            flat = intersect_hyperplanes(dim, rows[:k])
            if ref is None:
                assert flat is None
                seen["inconsistent"] += 1
                continue
            assert flat is not None and flat.rref == ref
            for normal, rhs in rows[k:] + base:
                ref_after = _reference_rref(dim, rows[:k] + [(normal, rhs)])
                y = meet(flat, normal, rhs)
                assert (y is flat) == (ref_after == ref)
                assert flat_contains(flat, normal, rhs) == (y is flat)
                if y is flat:
                    seen["contained"] += 1
                elif ref_after is None:
                    assert y is None
                else:
                    assert y.rref == ref_after and y.codim == flat.codim + 1
                    seen["cut"] += 1
        normals = [n for n, _ in rows]
        assert matrix_rank(normals) == len(_reference_row_reduce(normals, dim)[0])
    assert min(seen.values()) > 200


def test_matrix_rank():
    assert matrix_rank([]) == 0
    assert matrix_rank([(1, 0), (0, 1)]) == 2
    assert matrix_rank([(1, 1), (2, 2)]) == 1
    assert matrix_rank([(1, 2, 3)]) == 1
