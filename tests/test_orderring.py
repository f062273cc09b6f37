import random
from itertools import combinations

import pytest

from conftest import get_rs
from shicone.orderring import (
    OrderRing,
    RingElement,
    generator_strings,
    generator_value,
    generators,
    hilbert_series,
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
    assert len(OrderRing(poset).ideals) == n


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "B2", "B3", "C3", "D3", "G2",
                                  "A4", "B4", "C4", "D4", "F4"])
def test_counts_agree_on_root_posets(name):
    poset = root_poset(get_rs(name))
    n = len(poset.antichains())
    assert len(polytope_vertices(poset)) == n
    assert len(standard_monomials(poset)) == n
    assert len(OrderRing(poset).ideals) == n


def test_hilbert_recursion_random():
    rng = random.Random(77)
    for _ in range(60):
        poset = random_poset(rng.randint(1, 8), rng)
        for k in sorted(poset.maximal_elements()):
            p1, p0 = poset.delete_split(k)
            assert hilbert_series(poset) == hilbert_series(p1) + T * hilbert_series(p0)


# -- ring elements ------------------------------------------------------------------------


def test_single_element_heaviside_is_delta():
    poset = FinitePoset(["p"])
    ring = OrderRing(poset)
    assert ring.heaviside("p") == ring.delta({"p"})


def test_b2_heaviside_membership():
    poset = root_poset(get_rs("B2"))
    ring = OrderRing(poset)
    y0 = ring.heaviside(0)
    assert y0(frozenset({0, 1, 2})) == 1
    assert y0(frozenset()) == 0


def test_delta_expansion_identity():
    # delta_I = prod_{b in I} y_b * prod_{b not in I} (1 - y_b), pointwise
    ring = OrderRing(FORK)
    one = ring.one()
    for ideal in ring.ideals:
        product = one
        for b in FORK.elements:
            y = ring.heaviside(b)
            product = product * (y if b in ideal else one - y)
        assert product == ring.delta(ideal)


def test_delta_orthogonality():
    ring = OrderRing(FORK)
    ideals = ring.ideals
    d0, d1 = ring.delta(ideals[0]), ring.delta(ideals[1])
    assert d0 * d1 == ring.zero()
    assert d0 * d0 == d0


def test_one_is_identity():
    ring = OrderRing(FORK)
    f = ring.heaviside(3) + 2 * ring.delta(ring.ideals[0])
    assert ring.one() * f == f


def test_heaviside_product_absorbs_upward():
    # 1 <= 3 in the fork, so any ideal containing 3 contains 1
    ring = OrderRing(FORK)
    y1, y3 = ring.heaviside(1), ring.heaviside(3)
    assert y1 * y3 == y3


def test_poset_mismatch_rejected():
    a = OrderRing(FinitePoset([1]))
    b = OrderRing(FinitePoset([2]))
    with pytest.raises(ValueError):
        a.one() * b.one()


def test_heaviside_unknown_element():
    with pytest.raises(ValueError):
        OrderRing(FORK).heaviside(99)


@pytest.mark.parametrize(
    "call",
    [
        # 3 lies above 1 and 2, so {3} is not an ideal
        lambda ring: ring.ideal_position({3}),
        lambda ring: ring.delta({2, 3}),
        lambda ring: RingElement(ring, [0] * (len(ring.ideals) - 1)),
    ],
    ids=["position-non-ideal", "delta-non-ideal", "element-wrong-length"],
)
def test_ring_rejects_malformed_arguments(call):
    with pytest.raises(ValueError):
        call(OrderRing(FORK))


def test_ring_size_cap():
    with pytest.raises(ValueError):
        OrderRing(FinitePoset(range(25)))


# -- region ring dictionary ------------------------------------------------------------------


def test_vg_heaviside_extremes(rs_b2=None):
    rs = get_rs("B2")
    E = range(4)
    regions = regions_in_dominant(rs, E)
    full = next(r for r in regions if len(r.ideal) == 4)
    empty = next(r for r in regions if not r.ideal)
    for b in E:
        assert vg_heaviside(rs, E, full, b) == 1
        assert vg_heaviside(rs, E, empty, b) == 0


def test_vg_heaviside_requires_member():
    rs = get_rs("B2")
    region = regions_in_dominant(rs, [0])[0]
    with pytest.raises(ValueError):
        vg_heaviside(rs, [0], region, 3)


@pytest.mark.parametrize("name", ["B2", "A3"])
def test_region_ring_isomorphism(name):
    rs = get_rs(name)
    poset = root_poset(rs)
    E = range(len(rs.positive_roots))
    ring = OrderRing(poset)
    regions = regions_in_dominant(rs, E)
    for b in E:
        y = ring.heaviside(b)
        for region in regions:
            assert vg_heaviside(rs, E, region, b) == y(region.ideal)
    for b, c in combinations(E, 2):
        prod = ring.heaviside(b) * ring.heaviside(c)
        for region in regions:
            geo = vg_heaviside(rs, E, region, b) * vg_heaviside(rs, E, region, c)
            assert geo == prod(region.ideal)
