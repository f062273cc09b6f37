import hashlib
import random
from fractions import Fraction

import pytest

from conftest import RELATIONS, get_rs, holds, relation_row
from shicone import exactgeom
from shicone.exactgeom import (
    EQ,
    GE,
    GT,
    as_fractions,
    contains_flat,
    empty_flat,
    feasible_rows,
    flat_contains,
    full_space,
    intersect_hyperplanes,
    matrix_rank,
)
from shicone.rootsys import root_index


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
    # A closed degenerate interval: 3x >= 1 and -3x >= -1 pin x to 1/3.
    rows = [((3,), 1, exactgeom.GE), ((-3,), -1, exactgeom.GE)]
    assert solve(1, rows) == ((1,), 3)


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
