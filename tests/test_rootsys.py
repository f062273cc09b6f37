import hashlib
import math
import pickle
import random

import pytest

from conftest import RANK_4, RANK_LE_3, get_rs, mat_mul, mat_vec, weyl_matrix
from shicone import shi
from shicone.rootsys import (
    CartanType,
    act,
    build_root_system,
    element_from_word,
    height,
    inner_product,
    inverse_element,
    inversion_set,
    is_positive_vec,
    numerology,
    root_index,
    root_poset,
    weyl_group,
)

ALL_TYPES = RANK_LE_3 + RANK_4


# -- Cartan types -----------------------------------------------------------


def test_parse():
    assert CartanType.parse("b2") == CartanType("B", 2)
    assert CartanType.parse(" F4 ") == CartanType("F", 4)
    assert str(CartanType.parse("a13")) == "A13"


@pytest.mark.parametrize("bad", ["E8", "E6", "B1", "C1", "D2", "G3", "F5", "H3", "A0"])
def test_inadmissible_types_rejected(bad):
    with pytest.raises(ValueError):
        CartanType.parse(bad)


def test_parse_garbage_rejected():
    # the rank is ASCII digits: Arabic-Indic and fullwidth ones are refused
    for bad in ["", "B", "22", "B-2", "Bx2", "B\u0662", "F\uff14", "A1\u0663"]:
        with pytest.raises(ValueError):
            CartanType.parse(bad)


# -- construction ------------------------------------------------------------


def test_one_root_system_per_type_compared_by_identity():
    rs = build_root_system(CartanType.parse(" b2 "))
    assert rs is build_root_system(CartanType("B", 2))
    assert hash(rs) == object.__hash__(rs)
    # per-type caches are keyed by the one object
    assert shi.antichain_points(rs) is shi.antichain_points(
        build_root_system(CartanType("B", 2))
    )
    # a copy holds the same fields but is another object, so not equal
    copy = pickle.loads(pickle.dumps(rs))
    assert copy.positive_roots == rs.positive_roots and copy != rs


def test_b2_positive_roots():
    rs = get_rs("B2")
    # in simple-root coordinates: a, b, a+b, 2a+b with a the short root
    assert set(rs.positive_roots) == {(1, 0), (0, 1), (1, 1), (2, 1)}
    assert set(rs.positive_roots[:2]) == {(1, 0), (0, 1)}


def test_a1_trivial():
    rs = get_rs("A1")
    assert rs.positive_roots == ((1,),)
    assert rs.coxeter_number == 2
    assert rs.degrees == (2,)


def test_f4_count():
    rs = get_rs("F4")
    assert len(rs.positive_roots) == 24
    assert rs.coxeter_number == 12
    assert 24 == rs.rank * rs.coxeter_number // 2


@pytest.mark.parametrize("name", ALL_TYPES)
def test_closure_count_and_order(name):
    rs = get_rs(name)
    n = rs.rank
    assert len(rs.positive_roots) == n * rs.coxeter_number // 2
    simple = {tuple(1 if j == i else 0 for j in range(n)) for i in range(n)}
    assert set(rs.positive_roots[:n]) == simple
    heights = [height(r) for r in rs.positive_roots]
    assert heights == sorted(heights)
    assert all(is_positive_vec(r) for r in rs.positive_roots)


@pytest.mark.parametrize("name", ALL_TYPES)
def test_form_positive_on_roots(name):
    rs = get_rs(name)
    for r in rs.positive_roots:
        assert inner_product(rs, r, r) > 0


# -- inner products -----------------------------------------------------------


def test_b2_inner_products_match_euclidean_realization(rs_b2):
    # realize a = (0,1) and b = (1,-1) in the plane; the form must agree
    emb = {(1, 0): (0, 1), (0, 1): (1, -1)}

    def to_plane(r):
        x = r[0] * emb[(1, 0)][0] + r[1] * emb[(0, 1)][0]
        y = r[0] * emb[(1, 0)][1] + r[1] * emb[(0, 1)][1]
        return (x, y)

    for u in rs_b2.positive_roots:
        for v in rs_b2.positive_roots:
            pu, pv = to_plane(u), to_plane(v)
            assert inner_product(rs_b2, u, v) == pu[0] * pv[0] + pu[1] * pv[1]
    alpha, two_a_b = (1, 0), (2, 1)
    assert inner_product(rs_b2, alpha, two_a_b) == 1
    assert inner_product(rs_b2, alpha, alpha) > 0


def test_inner_product_symmetric_random_pairs():
    rng = random.Random(0)
    for _ in range(100):
        rs = get_rs(rng.choice(ALL_TYPES))
        u = rng.choice(rs.positive_roots)
        v = rng.choice(rs.positive_roots)
        assert inner_product(rs, u, v) == inner_product(rs, v, u)


def test_inner_product_dimension_check(rs_b2):
    with pytest.raises(ValueError):
        inner_product(rs_b2, (1, 0, 0), (0, 1, 0))


# -- root poset ----------------------------------------------------------------


def test_b2_root_poset(rs_b2):
    poset = root_poset(rs_b2)
    idx = root_index(rs_b2)
    a, b, ab, aab = idx[(1, 0)], idx[(0, 1)], idx[(1, 1)], idx[(2, 1)]
    assert set(poset.cover_pairs()) == {(a, ab), (b, ab), (ab, aab)}
    assert poset.leq(a, aab)
    assert not poset.comparable(a, b)


def test_a1_root_poset():
    poset = root_poset(get_rs("A1"))
    assert len(poset) == 1 and poset.cover_pairs() == []


def test_a3_root_poset_shape():
    poset = root_poset(get_rs("A3"))
    assert len(poset) == 6
    assert len(poset.maximal_elements()) == 1


@pytest.mark.parametrize("name", RANK_LE_3 + ["D4"])
def test_root_poset_order_is_coordinatewise_dominance(name):
    # independent description of the same order: beta <= gamma exactly
    # when gamma - beta has nonnegative coordinates
    rs = get_rs(name)
    poset = root_poset(rs)
    for i, u in enumerate(rs.positive_roots):
        for j, v in enumerate(rs.positive_roots):
            dominated = all(x <= y for x, y in zip(u, v))
            assert poset.leq(i, j) == dominated


# -- Weyl group -----------------------------------------------------------------


@pytest.mark.parametrize("name", RANK_LE_3)
def test_weyl_group_order(name):
    rs = get_rs(name)
    W = weyl_group(rs)
    assert len(W) == math.prod(rs.degrees)
    assert W[0].word == ()
    assert len({w.perm for w in W}) == len(W)


def test_b2_weyl_words(rs_b2):
    words = {w.word for w in weyl_group(rs_b2)}
    assert words == {
        (),
        (0,),
        (1,),
        (0, 1),
        (1, 0),
        (0, 1, 0),
        (1, 0, 1),
        (0, 1, 0, 1),
    }


def test_a1_weyl_group():
    assert len(weyl_group(get_rs("A1"))) == 2


def test_f4_weyl_group_size():
    assert len(weyl_group(get_rs("F4"))) == 1152


def test_weyl_rank_bound():
    rs = build_root_system(CartanType.parse("A5"))
    with pytest.raises(ValueError):
        weyl_group(rs)


def _matrix_from_images(rs, w):
    """Column j is the image of the simple root a_j under ``act``."""
    n = rs.rank
    simples = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    return tuple(zip(*(act(rs, w, a) for a in simples)))


def test_weyl_group_sequence_pinned():
    # element order, words and matrices of every supported group; the
    # benchmark's cone sampling relies on this order
    data = [
        (name, [(w.word, _matrix_from_images(rs, w)) for w in weyl_group(rs)])
        for name in ALL_TYPES
        for rs in [get_rs(name)]
    ]
    assert sum(len(ws) for _, ws in data) == 2404
    assert (
        hashlib.sha256(repr(data).encode()).hexdigest()
        == "32e4c92189551974e31974d607f41b286025017184a6141fe330eb37fb05f220"
    )


@pytest.mark.parametrize("name", ALL_TYPES)
def test_permutation_table_matches_matrices(name):
    # the matrices are products of simple reflections along the words,
    # so the permutation table is checked against linear algebra alone
    rs = get_rs(name)
    n = rs.rank
    roots = list(rs.positive_roots) + [tuple(-c for c in r) for r in rs.positive_roots]
    eye = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    for w in weyl_group(rs):
        m = weyl_matrix(rs, w)
        for r in roots:
            assert act(rs, w, r) == mat_vec(m, r)
        minv = weyl_matrix(rs, inverse_element(rs, w))
        assert mat_mul(minv, m) == eye
        assert inversion_set(rs, w) == {
            i
            for i, r in enumerate(rs.positive_roots)
            if all(c <= 0 for c in mat_vec(minv, r))
        }
        assert element_from_word(rs, w.word) == w


@pytest.mark.parametrize("name", RANK_LE_3)
def test_group_elements_permute_roots(name):
    rs = get_rs(name)
    roots = set(rs.positive_roots) | {tuple(-c for c in r) for r in rs.positive_roots}
    for w in weyl_group(rs):
        m = weyl_matrix(rs, w)
        image = {mat_vec(m, r) for r in roots}
        assert image == roots


# -- inversion sets ----------------------------------------------------------------


def test_b2_inversions(rs_b2):
    idx = root_index(rs_b2)
    ts = element_from_word(rs_b2, (1, 0))
    assert inversion_set(rs_b2, ts) == {idx[(0, 1)], idx[(1, 1)]}
    e = element_from_word(rs_b2, ())
    assert inversion_set(rs_b2, e) == frozenset()
    w0 = element_from_word(rs_b2, (0, 1, 0, 1))
    assert inversion_set(rs_b2, w0) == frozenset(range(4))


@pytest.mark.parametrize("name", ALL_TYPES)
def test_inversion_count_is_length(name):
    rs = get_rs(name)
    for w in weyl_group(rs):
        assert len(inversion_set(rs, w)) == len(w.word)


@pytest.mark.parametrize("name", ALL_TYPES)
def test_inversion_complement_transport(name):
    # the complement of Inv(w) is the w-image of the complement of Inv(w^{-1})
    rs = get_rs(name)
    npos = len(rs.positive_roots)
    idx = root_index(rs)
    for w in weyl_group(rs):
        winv = inverse_element(rs, w)
        lhs = set(range(npos)) - inversion_set(rs, w)
        rhs = {
            idx[act(rs, w, rs.positive_roots[i])]
            for i in set(range(npos)) - inversion_set(rs, winv)
        }
        assert lhs == rhs


# -- action ----------------------------------------------------------------------


def test_act_basics(rs_b2):
    e = element_from_word(rs_b2, ())
    s = element_from_word(rs_b2, (0,))
    for r in rs_b2.positive_roots:
        assert act(rs_b2, e, r) == r
    assert act(rs_b2, s, (1, 0)) == (-1, 0)
    w = element_from_word(rs_b2, (0, 1))
    winv = inverse_element(rs_b2, w)
    for r in rs_b2.positive_roots:
        assert act(rs_b2, w, act(rs_b2, winv, r)) == r


@pytest.mark.parametrize("word", [(2,), (-1,), (0, 1, 2)])
def test_element_from_word_rejects_out_of_range_generators(rs_b2, word):
    with pytest.raises(ValueError, match="out of range"):
        element_from_word(rs_b2, word)


def test_act_rejects_non_roots(rs_b2):
    s = element_from_word(rs_b2, (0,))
    with pytest.raises(ValueError):
        act(rs_b2, s, (5, 3))


def test_form_invariant_under_group(rs_b2):
    for w in weyl_group(rs_b2):
        m = weyl_matrix(rs_b2, w)
        for u in rs_b2.positive_roots:
            for v in rs_b2.positive_roots:
                assert inner_product(
                    rs_b2, mat_vec(m, u), mat_vec(m, v)
                ) == inner_product(rs_b2, u, v)


# -- numerology -------------------------------------------------------------------


def test_b2_numerology(rs_b2):
    num = numerology(rs_b2)
    assert num.parking == 25
    assert list(num.narayana) == [1, 4, 1]
    assert num.catalan == 6


def test_a3_numerology(rs_a3):
    num = numerology(rs_a3)
    assert num.catalan == 14
    assert num.parking == 125
    # formula cross-check with d = (2, 3, 4), h = 4
    assert num.catalan == (2 + 4) * (3 + 4) * (4 + 4) // (2 * 3 * 4)
    assert num.catalan == len(root_poset(rs_a3).antichains())


@pytest.mark.parametrize("name", ALL_TYPES)
def test_narayana_sums_to_catalan(name):
    num = numerology(get_rs(name))
    assert num.narayana(1) == num.catalan
    assert num.parking == (get_rs(name).coxeter_number + 1) ** get_rs(name).rank
