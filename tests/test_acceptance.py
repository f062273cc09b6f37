"""Acceptance suite: one test per criterion, each printing a PASS line
with its runtime and asserting exact values (integer arithmetic, no
tolerances) plus the stated time budget.

Run with ``pytest tests/test_acceptance.py -s`` to see the report lines.
"""

import random
import time
from fractions import Fraction

from conftest import (
    RANK_4,
    RANK_LE_3,
    RELATIONS,
    get_rs,
    holds,
    relation_row,
)
from shicone.exactgeom import as_fractions, feasible_rows
from shicone.orderring import (
    filtered_hilbert,
    generator_value,
    generators,
    hilbert_series,
    membership_masks,
    polytope_vertices,
    standard_monomials,
)
from shicone.poly import IntPolynomial, T
from shicone.posets import FinitePoset, random_poset
from shicone.rootsys import element_from_word, numerology, root_poset, weyl_group
from shicone.shi import (
    complement_of_inversions,
    full_arrangement_poincare,
    fuss_dominant,
    poincare,
    regions_in_cone,
    regions_in_dominant,
)
from shicone.verify import (
    TypeContext,
    check_antichain_independence,
    check_boolean_intervals,
    check_comparable_pair_infeasibility,
    check_cone_cut,
    check_flat_bijection,
    check_nonnesting_injectivity,
    check_region_ceiling_bijection,
    check_region_ring_isomorphism,
)

FORK = FinitePoset([1, 2, 3, 4, 5], [(1, 3), (2, 3), (3, 4), (3, 5)])


def _report(name: str, start: float, budget: float) -> None:
    elapsed = time.perf_counter() - start
    print(f"PASS {name} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert elapsed < budget, f"{name} exceeded its {budget}s budget: {elapsed:.1f}s"


def test_criterion_1_b2_golden_suite():
    start = time.perf_counter()
    rs = get_rs("B2")
    e = element_from_word(rs, ())
    st = element_from_word(rs, (0, 1))

    assert poincare(rs, e) == IntPolynomial([1, 4, 1])
    assert poincare(rs, st) == IntPolynomial([1, 2])

    W = weyl_group(rs)
    assert len(W) == 8
    total = sum((poincare(rs, w) for w in W), IntPolynomial())
    assert total == IntPolynomial([8, 16, 1])
    assert sum(len(regions_in_cone(rs, w)) for w in W) == 25
    assert full_arrangement_poincare(rs) == IntPolynomial([1, 8, 16])

    # ceiling families, written in simple-root coordinates
    a, b, ab, aab = (1, 0), (0, 1), (1, 1), (2, 1)
    dominant_ceilings = {
        frozenset({rs.positive_roots[i] for i in r.ceiling})
        for r in regions_in_dominant(rs, range(4))
    }
    assert dominant_ceilings == {
        frozenset(),
        frozenset({a}),
        frozenset({b}),
        frozenset({a, b}),
        frozenset({ab}),
        frozenset({aab}),
    }
    st_ceilings = {
        frozenset({rs.positive_roots[i] for i in r.ceiling})
        for r in regions_in_cone(rs, st)
    }
    assert st_ceilings == {frozenset(), frozenset({b}), frozenset({ab})}
    _report("criterion-1 b2-golden-suite", start, 1.0)


def test_criterion_2_theorem_suite_rank_le_3():
    start = time.perf_counter()
    for name in RANK_LE_3:
        ctx = TypeContext(get_rs(name))
        check_region_ceiling_bijection(ctx)  # bijection + facet and sign oracles
        check_flat_bijection(ctx)  # bijection + closure oracle
        check_boolean_intervals(ctx)  # 2^codim intervals, mu, #L_w = #R_w
        check_cone_cut(ctx)  # level-1 hyperplane meets wC iff not inverted
    _report("criterion-2 theorem-suite-rank-le-3", start, 30.0)


def test_criterion_3_rank_4_scaling_suite():
    start = time.perf_counter()
    # (coxeter_number + 1) ** 4 and the degree-product count per type
    parking_expected = {"A4": 1296, "B4": 6561, "C4": 6561, "D4": 2401, "F4": 28561}
    catalan_expected = {"A4": 42, "B4": 70, "C4": 70, "D4": 50, "F4": 105}
    for name in RANK_4:
        rs = get_rs(name)
        ctx = TypeContext(rs)
        check_region_ceiling_bijection(ctx)
        check_flat_bijection(ctx)
        check_boolean_intervals(ctx)
        check_antichain_independence(ctx)
        check_nonnesting_injectivity(ctx)
        num = numerology(rs)
        assert num.parking == parking_expected[name]
        assert num.parking == (rs.coxeter_number + 1) ** rs.rank
        assert num.catalan == catalan_expected[name]
        assert sum(len(ctx.regions(w)) for w in ctx.W) == num.parking
        assert len(ctx.regions(ctx.W[0])) == num.catalan
    _report("criterion-3 rank-4-scaling-suite", start, 300.0)


def test_criterion_4_extended_level_counterexamples():
    start = time.perf_counter()
    a2 = fuss_dominant(get_rs("A2"), 2)
    assert a2.n_flats == 11
    assert a2.n_regions == 12
    assert dict(a2.abs_mobius_counts) == {1: 10, 2: 1}

    a3 = fuss_dominant(get_rs("A3"), 2)
    assert a3.poincare == IntPolynomial([1, 12, 29, 13])
    assert a3.poincare != IntPolynomial([1, 12, 28, 14])
    _report("criterion-4 extended-level-counterexamples", start, 10.0)


def test_criterion_5_order_ring_suite():
    start = time.perf_counter()

    # Five-element double fork.  The vertex table below lists the filter
    # indicators with the bit order reversed (z_5 first); reading it
    # against our z_1-first convention is a bit flip of the whole string.
    printed = {
        "00000",
        "10000",
        "01000",
        "11100",
        "11110",
        "11101",
        "11000",
        "11111",
    }
    verts = polytope_vertices(FORK)
    assert {"".join(str(x) for x in v) for v in verts} == {s[::-1] for s in printed}
    assert len(verts) == 8
    for v in verts:
        for pair in generators(FORK):
            assert generator_value(FORK, pair, v) == 0
    degree_counts = {}
    for m in standard_monomials(FORK):
        degree_counts[len(m)] = degree_counts.get(len(m), 0) + 1
    assert degree_counts == {0: 1, 1: 5, 2: 2}
    assert hilbert_series(FORK) == IntPolynomial([1, 5, 2])

    # the Hilbert series of every cone's order ring, computed by ranks over
    # its order ideals, equals the cone's Poincare polynomial, every type of
    # rank <= 4
    for name in RANK_LE_3 + RANK_4:
        rs = get_rs(name)
        rp = root_poset(rs)
        for w in weyl_group(rs):
            sub = rp.restrict(complement_of_inversions(rs, w))
            ideals = sub.order_ideals()
            masks = membership_masks(ideals, sub.elements)
            assert filtered_hilbert(masks, len(ideals)) == poincare(rs, w)

    # region ring vs order ring on B2 and A3: values, and both Hilbert series
    # against the dominant flats
    for name in ("B2", "A3"):
        check_region_ring_isomorphism(TypeContext(get_rs(name)))

    # deletion recursion for the Hilbert series on 200 random posets
    rng = random.Random(2024)
    for _ in range(200):
        poset = random_poset(rng.randint(1, 8), rng, edge_prob=rng.uniform(0.1, 0.6))
        k = poset.natural_labeling()[-1]
        p1, p0 = poset.delete_split(k)
        assert hilbert_series(poset) == hilbert_series(p1) + T * hilbert_series(p0)
    _report("criterion-5 order-ring-suite", start, 5.0)


def test_criterion_6_exact_geometry_suite():
    start = time.perf_counter()

    # witnesses re-satisfy their systems exactly
    rng = random.Random(99)
    witnesses = 0
    for _ in range(200):
        dim = rng.randint(1, 3)
        rows = [
            relation_row(
                [rng.randint(-4, 4) for _ in range(dim)],
                rng.choice(RELATIONS),
                rng.randint(-3, 3),
            )
            for _ in range(rng.randint(1, 7))
        ]
        w = feasible_rows(dim, rows)
        if w is not None:
            witnesses += 1
            point = as_fractions(w)
            assert all(holds(row, point) for row in rows)
        else:
            # infeasibility vs randomized rational sampling: the sampler
            # must never find a point the elimination ruled out
            for _ in range(40):
                point = tuple(
                    Fraction(rng.randint(-18, 18), rng.randint(1, 6))
                    for _ in range(dim)
                )
                assert not all(holds(row, point) for row in rows)
    assert witnesses > 30

    # comparable pairs: the two level-1 hyperplanes never meet inside the
    # dominant cone, for every rank <= 3 root poset
    for name in RANK_LE_3:
        check_comparable_pair_infeasibility(TypeContext(get_rs(name)))
    _report("criterion-6 exact-geometry-suite", start, 10.0)
