import random
import sys
from itertools import combinations

import pytest

from conftest import RANK_LE_3, get_rs
from shicone.orderring import polytope_vertices
from shicone.poly import IntPolynomial
from shicone.posets import FinitePoset, random_poset
from shicone.rootsys import (
    inverse_element,
    inversion_set,
    root_index,
    root_poset,
    weyl_group,
)

# the five-element double-fork poset: 1,2 below 3, which is below 4,5
FORK = FinitePoset([1, 2, 3, 4, 5], [(1, 3), (2, 3), (3, 4), (3, 5)])


def brute_antichains(poset):
    """Independent oracle: filter all subsets for pairwise incomparability."""
    out = set()
    elems = list(poset.elements)
    for r in range(len(elems) + 1):
        for S in combinations(elems, r):
            if poset.is_antichain(S):
                out.add(frozenset(S))
    return out


def count_by_split(poset):
    """Independent oracle: antichain count via the deletion recursion."""
    if len(poset) == 0:
        return 1
    k = poset.natural_labeling()[-1]
    p1, p0 = poset.delete_split(k)
    return count_by_split(p1) + count_by_split(p0)


# -- construction -------------------------------------------------------------


def test_cycle_rejected():
    with pytest.raises(ValueError):
        FinitePoset([1, 2, 3], [(1, 2), (2, 3), (3, 1)])


def test_duplicates_rejected():
    with pytest.raises(ValueError):
        FinitePoset([1, 1, 2])


def test_leq_is_transitive_closure():
    p = FinitePoset("abcd", [("a", "b"), ("b", "c")])
    assert p.leq("a", "c") and not p.leq("c", "a")
    assert not p.comparable("a", "d")
    assert set(p.cover_pairs()) == {("a", "b"), ("b", "c")}


# -- restrict -----------------------------------------------------------------


def test_restrict_b2_to_short_chain():
    rs = get_rs("B2")
    poset = root_poset(rs)
    idx = root_index(rs)
    a, aab = idx[(1, 0)], idx[(2, 1)]
    sub = poset.restrict([a, aab])
    assert len(sub) == 2
    assert sub.leq(a, aab)
    assert sub.cover_pairs() == [(a, aab)]


def test_restrict_empty_and_full():
    sub = FORK.restrict([])
    assert len(sub) == 0
    assert sub.antichains() == [frozenset()]
    assert FORK.restrict(FORK.elements) == FORK


# -- ideals -------------------------------------------------------------------


def test_ideal_generated_empty():
    assert FORK.ideal_generated([]) == frozenset()


def test_ideal_generated_b2():
    rs = get_rs("B2")
    poset = root_poset(rs)
    idx = root_index(rs)
    got = poset.ideal_generated([idx[(1, 1)]])
    assert got == {idx[(1, 0)], idx[(0, 1)], idx[(1, 1)]}


def test_ideal_generated_fork():
    assert FORK.ideal_generated([4, 5]) == {1, 2, 3, 4, 5}
    assert FORK.ideal_generated([3]) == {1, 2, 3}


def test_ideal_generated_rejects_chains():
    with pytest.raises(ValueError):
        FORK.ideal_generated([1, 3])


def test_is_antichain_matches_pairwise_reference():
    rng = random.Random(5)
    for _ in range(50):
        poset = random_poset(7, rng)
        for _ in range(20):
            items = [rng.randrange(7) for _ in range(rng.randrange(5))]
            pairwise = all(
                a != b and not poset.comparable(a, b)
                for i, a in enumerate(items)
                for b in items[i + 1 :]
            )
            assert poset.is_antichain(items) == pairwise
    with pytest.raises(KeyError):
        FORK.is_antichain([6])


def test_filter_generated():
    assert FORK.filter_generated([3]) == {3, 4, 5}
    assert FORK.filter_generated([1, 2]) == {1, 2, 3, 4, 5}


def test_filter_generated_rejects_chains():
    with pytest.raises(ValueError, match="not an antichain"):
        FORK.filter_generated([3, 4])


# -- antichains -----------------------------------------------------------------


def test_b2_antichains():
    rs = get_rs("B2")
    poset = root_poset(rs)
    idx = root_index(rs)
    a, b, ab, aab = idx[(1, 0)], idx[(0, 1)], idx[(1, 1)], idx[(2, 1)]
    got = set(poset.antichains())
    assert got == {
        frozenset(),
        frozenset({a}),
        frozenset({b}),
        frozenset({a, b}),
        frozenset({ab}),
        frozenset({aab}),
    }


def test_b2_restricted_antichains():
    rs = get_rs("B2")
    idx = root_index(rs)
    sub = root_poset(rs).restrict([idx[(1, 0)], idx[(2, 1)]])
    assert len(sub.antichains()) == 3


def test_fork_antichains():
    got = set(FORK.antichains())
    assert got == {
        frozenset(),
        frozenset({1}),
        frozenset({2}),
        frozenset({3}),
        frozenset({4}),
        frozenset({5}),
        frozenset({1, 2}),
        frozenset({4, 5}),
    }


def test_antichains_grouped_by_size():
    sizes = [len(A) for A in FORK.antichains()]
    assert sizes == sorted(sizes)
    assert FORK.antichains()[0] == frozenset()


def test_antichains_enumerated_once_per_poset(monkeypatch):
    # an order-ring request reads the antichains three times (filters,
    # standard monomials, Hilbert series): one enumeration feeds them all
    calls = []
    enumerate_antichains = FinitePoset._enumerate_antichains

    def counting(self):
        calls.append(self)
        return enumerate_antichains(self)

    monkeypatch.setattr(FinitePoset, "_enumerate_antichains", counting)
    poset = FORK.restrict(FORK.elements)
    first = poset.antichains()
    first.append("mutated")
    assert poset.order_filters() and poset.order_ideals()
    assert poset.antichain_polynomial()(1) == len(poset.antichains()) == 8
    assert poset.antichains() is not poset.antichains()
    assert calls == [poset]
    # a restriction is a new poset with its own antichains
    sub = poset.restrict([1, 3, 4])
    assert sub.antichains() == [frozenset(), frozenset({1}), frozenset({3}), frozenset({4})]
    assert calls == [poset, sub]


def test_ideals_filters_and_polynomial_read_cached_antichains(monkeypatch):
    # the derived lists read the cached antichains through antichains(),
    # the one path into the cache, so the benchmark's span sees each read
    poset = FORK.restrict(FORK.elements)
    antichains = poset.antichains()
    expected = (
        [poset.ideal_generated(A) for A in antichains],
        [poset.filter_generated(A) for A in antichains],
        IntPolynomial.from_sizes(map(len, antichains)),
    )
    calls = []
    listed = FinitePoset.antichains

    def counting(self):
        calls.append(self)
        return listed(self)

    monkeypatch.setattr(FinitePoset, "antichains", counting)
    got = []
    for derive in (poset.order_ideals, poset.order_filters, poset.antichain_polynomial):
        got.append(derive())
        assert calls == [poset], derive.__name__
        calls.clear()
    assert tuple(got) == expected


def test_antichains_enumerated_inside_antichains(monkeypatch):
    # whatever derives from the antichains, the enumeration runs inside
    # antichains(), so its time is charged to that method and no other
    callers = []
    enumerate_antichains = FinitePoset._enumerate_antichains

    def recording(self):
        callers.append(sys._getframe(1).f_code.co_name)
        return enumerate_antichains(self)

    monkeypatch.setattr(FinitePoset, "_enumerate_antichains", recording)
    derived = (
        polytope_vertices,
        FinitePoset.order_ideals,
        FinitePoset.order_filters,
        FinitePoset.antichain_polynomial,
    )
    for derive in derived:
        derive(FORK.restrict(FORK.elements))
    assert callers == ["antichains"] * len(derived)


@pytest.mark.parametrize("seed", range(12))
def test_antichains_match_brute_force(seed):
    rng = random.Random(seed)
    poset = random_poset(rng.randint(0, 8), rng, edge_prob=rng.uniform(0.1, 0.5))
    enumerated = poset.antichains()
    assert len(enumerated) == len(set(enumerated))
    assert set(enumerated) == brute_antichains(poset)
    assert len(enumerated) == count_by_split(poset)


@pytest.mark.parametrize("name", RANK_LE_3 + ["A4", "B4", "C4", "D4", "F4"])
def test_restricted_antichains_are_ambient_antichains(name):
    rs = get_rs(name)
    poset = root_poset(rs)
    full = set(poset.antichains())
    for w in weyl_group(rs):
        E = set(range(len(rs.positive_roots))) - inversion_set(
            rs, inverse_element(rs, w)
        )
        sub = poset.restrict(sorted(E))
        expect = {A for A in full if A <= E}
        assert set(sub.antichains()) == expect


# -- ideal/antichain bijection ----------------------------------------------------


@pytest.mark.parametrize("seed", range(8))
def test_ideal_antichain_bijection(seed):
    rng = random.Random(100 + seed)
    poset = random_poset(rng.randint(1, 8), rng)
    ideals = poset.order_ideals()
    assert len(ideals) == len(set(ideals)) == len(poset.antichains())
    for A in poset.antichains():
        ideal = poset.ideal_generated(A)
        assert poset.max_elements(ideal) == A
    for ideal in ideals:
        assert poset.ideal_generated(poset.max_elements(ideal)) == ideal
        assert poset.is_ideal(ideal)


# -- delete_split -------------------------------------------------------------------


def test_fork_delete_split():
    p1, p0 = FORK.delete_split(5)
    assert set(p1.elements) == {1, 2, 3, 4}
    assert set(p0.elements) == {4}
    assert set(p1.antichains()) == {
        frozenset(),
        frozenset({1}),
        frozenset({2}),
        frozenset({3}),
        frozenset({4}),
        frozenset({1, 2}),
    }
    assert set(p0.antichains()) == {frozenset(), frozenset({4})}
    got = set(p1.antichains()) | {A | {5} for A in p0.antichains()}
    assert got == set(FORK.antichains())


def test_delete_split_single_element():
    poset = FinitePoset([7])
    p1, p0 = poset.delete_split(7)
    assert len(p1) == 0 and len(p0) == 0


def test_delete_split_requires_maximal():
    with pytest.raises(ValueError):
        FORK.delete_split(3)
    with pytest.raises(ValueError):
        FORK.delete_split(99)


def test_delete_split_recursion_on_random_posets():
    rng = random.Random(42)
    for _ in range(50):
        poset = random_poset(6, rng, edge_prob=rng.uniform(0.1, 0.6))
        for k in sorted(poset.maximal_elements()):
            p1, p0 = poset.delete_split(k)
            lhs = set(poset.antichains())
            rhs = set(p1.antichains()) | {A | {k} for A in p0.antichains()}
            assert lhs == rhs


# -- natural labeling ------------------------------------------------------------------


def test_natural_labeling_chain():
    p = FinitePoset("abc", [("a", "b"), ("b", "c")])
    assert p.natural_labeling() == ("a", "b", "c")


def test_natural_labeling_antichain_stable():
    p = FinitePoset([3, 1, 2])
    assert p.natural_labeling() == (3, 1, 2)


def test_natural_labeling_fork():
    labels = FORK.natural_labeling()
    assert labels == (1, 2, 3, 4, 5)


@pytest.mark.parametrize("seed", range(6))
def test_natural_labeling_is_linear_extension(seed):
    rng = random.Random(200 + seed)
    poset = random_poset(rng.randint(1, 9), rng)
    order = poset.natural_labeling()
    position = {e: i for i, e in enumerate(order)}
    for a in poset.elements:
        for b in poset.elements:
            if a != b and poset.leq(a, b):
                assert position[a] < position[b]


# -- serialization -------------------------------------------------------------------------


def test_json_round_trip():
    data = FORK.to_json_dict()
    assert data["elements"] == [1, 2, 3, 4, 5]
    clone = FinitePoset.from_json_dict(data)
    assert clone == FORK


def test_json_empty():
    p = FinitePoset([])
    assert FinitePoset.from_json_dict(p.to_json_dict()) == p
