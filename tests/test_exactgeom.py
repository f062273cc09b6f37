import random
from fractions import Fraction

import pytest

from conftest import get_rs
from shicone import _fmcore_py

try:
    from shicone import _fmcore_c
except ImportError:
    _fmcore_c = None

needs_compiled = pytest.mark.skipif(
    _fmcore_c is None, reason="compiled kernel not built"
)
from shicone.exactgeom import (
    LinearConstraint,
    Relation,
    contains_flat,
    empty_flat,
    feasible,
    flat_contains,
    full_space,
    intersect_hyperplanes,
    matrix_rank,
)
from shicone.rootsys import root_index

C = LinearConstraint.of


# -- feasibility ----------------------------------------------------------------


def test_open_interval():
    w = feasible([C([1], Relation.GT, 0), C([1], Relation.LT, 1)])
    assert w is not None and 0 < w[0] < 1


def test_point_system():
    w = feasible([C([1, 0], Relation.EQ, 3), C([0, 1], Relation.EQ, -2)])
    assert w == (Fraction(3), Fraction(-2))


def test_infeasible_strict_point():
    assert feasible([C([1], Relation.GT, 0), C([1], Relation.LT, 0)]) is None
    assert feasible([C([1], Relation.GE, 0), C([1], Relation.LE, 0)]) == (Fraction(0),)


def test_comparable_pair_misses_cone():
    # in B2: both level-1 hyperplanes of a comparable pair cannot meet the
    # open dominant cone
    rs = get_rs("B2")
    idx = root_index(rs)
    for low, high in [((1, 0), (1, 1)), ((0, 1), (1, 1)), ((1, 1), (2, 1)), ((1, 0), (2, 1))]:
        cons = [
            C(low, Relation.EQ, 1),
            C(high, Relation.EQ, 1),
            C([1, 0], Relation.GT, 0),
            C([0, 1], Relation.GT, 0),
        ]
        assert feasible(cons) is None
    assert idx  # touch fixture


def test_triple_point_witness():
    # three level hyperplanes through one point: a=1, b=1, a+b=2
    w = feasible(
        [
            C([1, 0], Relation.EQ, 1),
            C([0, 1], Relation.EQ, 1),
            C([1, 1], Relation.EQ, 2),
        ]
    )
    assert w == (Fraction(1), Fraction(1))


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        feasible([C([1], Relation.GT, 0), C([1, 2], Relation.GT, 0)])


def test_dimension_cap():
    with pytest.raises(ValueError):
        feasible([C([1, 0, 0, 0, 0], Relation.GT, 0)])


def test_zero_normal_constraints():
    assert feasible([C([0, 0], Relation.GE, 0)]) is not None
    assert feasible([C([0, 0], Relation.GT, 0)]) is None
    assert feasible([C([0, 0], Relation.EQ, 1), C([1, 0], Relation.GT, 0)]) is None


def test_unbounded_directions():
    w = feasible([C([1, 0], Relation.GE, 5)])
    assert w is not None and w[0] >= 5


def test_rational_coefficients():
    w = feasible(
        [
            C([Fraction(1, 2), Fraction(1, 3)], Relation.EQ, Fraction(5, 6)),
            C([1, -1], Relation.GT, 0),
        ]
    )
    assert w is not None
    assert Fraction(1, 2) * w[0] + Fraction(1, 3) * w[1] == Fraction(5, 6)
    assert w[0] > w[1]


def _random_system(rng, dim):
    rows = []
    for _ in range(rng.randint(1, 8)):
        normal = [rng.randint(-4, 4) for _ in range(dim)]
        rel = rng.choice(list(Relation))
        rows.append(C(normal, rel, rng.randint(-3, 3)))
    return rows


def test_witness_resubstitution_random():
    rng = random.Random(11)
    found = 0
    for _ in range(300):
        dim = rng.randint(1, 4)
        cons = _random_system(rng, dim)
        w = feasible(cons)
        if w is not None:
            found += 1
            assert all(c.holds_at(w) for c in cons)
    assert found > 50


def test_sampler_agreement():
    # random rational sampling can only find points of feasible systems,
    # so every sampler hit must come with a kernel witness
    rng = random.Random(23)
    agreements = 0
    for _ in range(200):
        dim = rng.randint(1, 3)
        cons = _random_system(rng, dim)
        hit = None
        for _ in range(60):
            point = tuple(
                Fraction(rng.randint(-24, 24), rng.randint(1, 8)) for _ in range(dim)
            )
            if all(c.holds_at(point) for c in cons):
                hit = point
                break
        if hit is not None:
            assert feasible(cons) is not None
            agreements += 1
    assert agreements > 40


@needs_compiled
def test_kernels_agree_on_random_systems():
    rng = random.Random(37)
    kinds = [0, 1, 2]
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
        assert _fmcore_py.solve(dim, rows) == _fmcore_c.solve(dim, rows)


@needs_compiled
def test_kernel_overflow_fallback_agrees():
    big = 1 << 45
    rows = [((big, -big + 3), 1, 2), ((-big, big), 0, 1), ((0, 1), -5, 2)]
    assert _fmcore_py.solve(2, rows) == _fmcore_c.solve(2, rows)
    rows = [((1 << 62, 1), 0, 2), ((-(1 << 62), 1), 1, 1)]
    assert _fmcore_py.solve(2, rows) == _fmcore_c.solve(2, rows)


# -- affine flats ------------------------------------------------------------------


def test_full_space():
    v = full_space(3)
    assert v.codim == 0 and len(v.directions) == 3
    assert v == intersect_hyperplanes(3, [])


def test_b2_point_flat():
    flat = intersect_hyperplanes(2, [((1, 0), 1), ((0, 1), 1)])
    assert flat.codim == 2
    assert flat.basepoint == ((1, 1), 1)
    assert flat.directions == ()


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
        if not flat.is_empty:
            nums, den = flat.basepoint
            assert den > 0
            for normal, rhs in rows:
                assert sum(c * x for c, x in zip(normal, nums)) == rhs * den


def test_empty_intersection():
    flat = intersect_hyperplanes(2, [((1, 0), 0), ((1, 0), 1)])
    assert flat.is_empty
    assert flat == empty_flat(2)
    with pytest.raises(ValueError):
        flat.codim


def test_flat_contains_basics():
    h = intersect_hyperplanes(2, [((1, 0), 1)])
    assert flat_contains(h, (1, 0), 1)
    assert not flat_contains(h, (0, 1), 1)
    v = full_space(2)
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
        if not flat.is_empty:
            for normal, rhs in rows:
                assert flat_contains(flat, normal, rhs)


def test_contains_flat():
    plane = intersect_hyperplanes(3, [((1, 0, 0), 1)])
    line = intersect_hyperplanes(3, [((1, 0, 0), 1), ((0, 1, 0), 0)])
    assert contains_flat(plane, line)
    assert not contains_flat(line, plane)
    assert contains_flat(full_space(3), plane)


def test_matrix_rank():
    assert matrix_rank([]) == 0
    assert matrix_rank([(1, 0), (0, 1)]) == 2
    assert matrix_rank([(1, 1), (2, 2)]) == 1
    assert matrix_rank([(1, 2, 3)]) == 1
