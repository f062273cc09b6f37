import random

import pytest

from conftest import deletion_poset, get_rs
from shicone.orderring import (
    filtered_hilbert,
    generator_strings,
    generator_value,
    generators,
    hilbert_series,
    membership_masks,
    polytope_vertices,
    standard_monomials,
    vg_heaviside,
)
from shicone.poly import IntPolynomial, T
from shicone.posets import FinitePoset, random_poset
from shicone.rootsys import root_poset
from shicone.shi import regions_in_dominant

FORK = FinitePoset([1, 2, 3, 4, 5], [(1, 3), (2, 3), (3, 4), (3, 5)])


def vertex_str(v):
    return "".join(str(x) for x in v)


# -- order polytope vertices ----------------------------------------------------


def test_fork_vertices_are_filter_indicators():
    verts = {vertex_str(v) for v in polytope_vertices(FORK)}
    # order filters of the double fork, as indicators over elements 1..5
    assert verts == {
        "00000",
        "00010",
        "00001",
        "00011",
        "00111",
        "10111",
        "01111",
        "11111",
    }
    assert len(verts) == len(FORK.antichains())


def test_empty_poset_vertex():
    assert polytope_vertices(FinitePoset([])) == frozenset({()})


def test_chain_vertices():
    chain = FinitePoset("abc", [("a", "b"), ("b", "c")])
    verts = {vertex_str(v) for v in polytope_vertices(chain)}
    assert verts == {"000", "001", "011", "111"}


def test_vertices_are_upward_closed():
    rng = random.Random(9)
    for _ in range(20):
        poset = random_poset(rng.randint(1, 7), rng)
        for v in polytope_vertices(poset):
            members = {e for e, bit in zip(poset.elements, v) if bit}
            for p in members:
                for q in poset.elements:
                    if poset.leq(p, q):
                        assert q in members


# -- generators -------------------------------------------------------------------


def test_fork_generators():
    gens = generators(FORK)
    idempotents = [(p, q) for p, q in gens if p == q]
    strict = [(p, q) for p, q in gens if p != q]
    assert len(idempotents) == 5
    assert set(strict) == {
        (1, 3),
        (1, 4),
        (1, 5),
        (2, 3),
        (2, 4),
        (2, 5),
        (3, 4),
        (3, 5),
    }
    assert generator_strings(FORK)[0] == "z_1*(1-z_1)"
    assert "z_1*(1-z_3)" in generator_strings(FORK)


def test_antichain_poset_generators_only_idempotent():
    poset = FinitePoset([1, 2, 3])
    assert generators(poset) == ((1, 1), (2, 2), (3, 3))


def test_generators_vanish_on_vertices():
    for poset in (FORK, FinitePoset("ab", [("a", "b")]), root_poset(get_rs("B2"))):
        for v in polytope_vertices(poset):
            for pair in generators(poset):
                assert generator_value(poset, pair, v) == 0


def test_generators_do_not_all_vanish_elsewhere():
    # 10000 marks only the minimal element 1: not a filter indicator
    bad = (1, 0, 0, 0, 0)
    assert any(generator_value(FORK, pair, bad) != 0 for pair in generators(FORK))


# -- standard monomials and Hilbert series ---------------------------------------------


def test_fork_standard_monomials():
    mons = standard_monomials(FORK)
    by_degree = {}
    for m in mons:
        by_degree.setdefault(len(m), set()).add(m)
    assert len(by_degree[0]) == 1
    assert len(by_degree[1]) == 5
    assert by_degree[2] == {frozenset({1, 2}), frozenset({4, 5})}
    assert FORK.is_antichain({4, 5})
    assert not FORK.is_antichain({1, 3})


def test_fork_hilbert():
    assert hilbert_series(FORK) == IntPolynomial([1, 5, 2])


def test_empty_poset_hilbert():
    assert hilbert_series(FinitePoset([])) == IntPolynomial([1])


def test_b2_hilbert_is_narayana():
    assert hilbert_series(root_poset(get_rs("B2"))) == IntPolynomial([1, 4, 1])


@pytest.mark.parametrize("seed", range(8))
def test_counts_agree(seed):
    rng = random.Random(300 + seed)
    poset = random_poset(rng.randint(0, 8), rng)
    n = len(poset.antichains())
    assert len(polytope_vertices(poset)) == n
    assert len(standard_monomials(poset)) == n
    assert len(poset.order_ideals()) == n


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "B2", "B3", "C3", "D3", "G2",
                                  "A4", "B4", "C4", "D4", "F4"])
def test_counts_agree_on_root_posets(name):
    poset = root_poset(get_rs(name))
    n = len(poset.antichains())
    assert len(polytope_vertices(poset)) == n
    assert len(standard_monomials(poset)) == n
    assert len(poset.order_ideals()) == n


def test_hilbert_recursion_random():
    rng = random.Random(77)
    for _ in range(60):
        poset = random_poset(rng.randint(1, 8), rng)
        for k in sorted(poset.maximal_elements()):
            p1, p0 = poset.delete_split(k)
            assert hilbert_series(poset) == hilbert_series(p1) + T * hilbert_series(p0)


# -- filtered Hilbert series -----------------------------------------------------------------


def order_ring_series(poset):
    ideals = poset.order_ideals()
    return filtered_hilbert(membership_masks(ideals, poset.elements), len(ideals))


def test_membership_masks():
    assert membership_masks([{1}, {1, 2}, set()], [1, 2, 3]) == [0b011, 0b010, 0]


def test_fork_filtered_hilbert():
    assert order_ring_series(FORK) == IntPolynomial([1, 5, 2])


def test_empty_poset_filtered_hilbert():
    assert order_ring_series(FinitePoset([])) == IntPolynomial([1])


def test_chain_filtered_hilbert():
    # y_a y_b = y_b on a chain a < b < c: the filtration stops at degree 1
    chain = FinitePoset("abc", [("a", "b"), ("b", "c")])
    assert order_ring_series(chain) == IntPolynomial([1, 3])


def test_filtered_hilbert_reads_ranks_not_masks():
    # three points: y = (1, 1, 0) and z = (0, 1, 1) give y z = (0, 1, 0),
    # so F_2 is everything; a repeated or constant mask adds nothing
    assert filtered_hilbert([0b011, 0b110], 3) == IntPolynomial([1, 2])
    assert filtered_hilbert([0b011, 0b011, 0b111, 0], 3) == IntPolynomial([1, 1])
    assert filtered_hilbert([0b001, 0b010], 3) == IntPolynomial([1, 2])
    assert filtered_hilbert([], 0) == IntPolynomial()


@pytest.mark.parametrize("seed", range(6))
def test_filtered_hilbert_matches_antichains(seed):
    rng = random.Random(500 + seed)
    poset = random_poset(rng.randint(0, 7), rng)
    assert order_ring_series(poset) == hilbert_series(poset)


def test_flipped_vg_bit_changes_series():
    # the A3 dominant VG masks give the Poincare polynomial 1 + 6t + 6t^2 + t^3;
    # claiming any hyperplane has the empty-ideal region below level 1 moves it
    rs = get_rs("A3")
    E = range(len(rs.positive_roots))
    regions = regions_in_dominant(rs, deletion_poset(rs, E))
    masks = [
        sum(vg_heaviside(rs, E, r, b) << i for i, r in enumerate(regions)) for b in E
    ]
    assert filtered_hilbert(masks, len(regions)) == IntPolynomial([1, 6, 6, 1])
    bottom = next(i for i, r in enumerate(regions) if not r.ideal)
    for b in E:
        flipped = list(masks)
        flipped[b] ^= 1 << bottom
        assert filtered_hilbert(flipped, len(regions)) != IntPolynomial([1, 6, 6, 1])


# -- region ring dictionary ------------------------------------------------------------------


def test_vg_heaviside_extremes(rs_b2=None):
    rs = get_rs("B2")
    E = range(4)
    regions = regions_in_dominant(rs, deletion_poset(rs, E))
    full = next(r for r in regions if len(r.ideal) == 4)
    empty = next(r for r in regions if not r.ideal)
    for b in E:
        assert vg_heaviside(rs, E, full, b) == 1
        assert vg_heaviside(rs, E, empty, b) == 0


def test_vg_heaviside_requires_member():
    rs = get_rs("B2")
    region = regions_in_dominant(rs, deletion_poset(rs, [0]))[0]
    with pytest.raises(ValueError):
        vg_heaviside(rs, [0], region, 3)


@pytest.mark.parametrize("name", ["B2", "A3"])
def test_region_ring_isomorphism(name):
    rs = get_rs(name)
    poset = root_poset(rs)
    E = range(len(rs.positive_roots))
    regions = regions_in_dominant(rs, deletion_poset(rs, E))
    vg = [sum(vg_heaviside(rs, E, r, b) << i for i, r in enumerate(regions)) for b in E]
    assert vg == membership_masks([r.ideal for r in regions], E)
    assert filtered_hilbert(vg, len(regions)) == order_ring_series(poset)
    assert order_ring_series(poset) == hilbert_series(poset)
