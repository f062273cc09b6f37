from fractions import Fraction

import pytest

from conftest import RANK_LE_3, get_rs
from shicone.poly import IntPolynomial
from shicone.rootsys import (
    element_from_word,
    inversion_set,
    numerology,
    root_index,
    weyl_group,
)
from shicone.shi import (
    ShiArrangement,
    ceiling_oracle,
    complement_of_inversions,
    cone_report,
    dominant_sign_oracle,
    flats_in_cone,
    flats_in_dominant,
    flats_oracle,
    full_arrangement_poincare,
    fuss_dominant,
    poincare,
    regions_in_cone,
    regions_in_dominant,
    transport_regions,
)


def roots_of(rs, indices):
    return {rs.positive_roots[i] for i in indices}


# -- arrangements --------------------------------------------------------------


def test_deletion_contains_reflection_arrangement(rs_b2):
    arr = ShiArrangement.deletion(rs_b2, [0, 2])
    assert all(0 in ls for ls in arr.levels)
    assert ShiArrangement.deletion(rs_b2, range(4)) == ShiArrangement.full(rs_b2)
    assert ShiArrangement.fuss(rs_b2, 1) == ShiArrangement.full(rs_b2)


def test_fuss_levels(rs_b2):
    arr = ShiArrangement.fuss(rs_b2, 2)
    assert arr.levels[0] == frozenset({-1, 0, 1, 2})
    assert (0, -1) in arr.hyperplanes() and (0, 2) in arr.hyperplanes()
    with pytest.raises(ValueError):
        ShiArrangement.fuss(rs_b2, 0)


# -- dominant regions ------------------------------------------------------------


def test_b2_dominant_regions(rs_b2):
    regions = regions_in_dominant(rs_b2, range(4))
    assert len(regions) == 6
    ceilings = {frozenset(roots_of(rs_b2, r.ceiling)) for r in regions}
    assert ceilings == {
        frozenset(),
        frozenset({(1, 0)}),
        frozenset({(0, 1)}),
        frozenset({(1, 0), (0, 1)}),
        frozenset({(1, 1)}),
        frozenset({(2, 1)}),
    }


def test_empty_deletion_single_region(rs_b2):
    regions = regions_in_dominant(rs_b2, [])
    assert len(regions) == 1
    assert regions[0].ceiling == frozenset()
    nums, den = regions[0].witness
    assert den > 0 and all(x > 0 for x in nums)


def test_a3_dominant_region_count_with_oracle(rs_a3):
    E = range(len(rs_a3.positive_roots))
    regions = regions_in_dominant(rs_a3, E)
    assert len(regions) == 14
    oracle = dominant_sign_oracle(rs_a3, E)
    assert set(oracle) == {r.ideal for r in regions}


def test_region_witness_predicates(rs_b2):
    E = [0, 3]
    for region in regions_in_dominant(rs_b2, E):
        nums, den = region.witness
        assert den > 0
        for i, coords in enumerate(rs_b2.positive_roots):
            v = sum(c * x for c, x in zip(coords, nums))  # den * pairing
            assert v > 0
            if i in region.ideal:
                assert v < den
            elif i in E:
                assert v > den


def test_sign_oracle_rank_bound():
    with pytest.raises(ValueError):
        dominant_sign_oracle(get_rs("B4"), range(16))


# -- ceilings ----------------------------------------------------------------------


def test_ceiling_oracle_empty_ideal(rs_b2):
    region = regions_in_dominant(rs_b2, [])[0]
    assert ceiling_oracle(rs_b2, [], region) == frozenset()


def test_ceiling_oracle_bounded_alcove(rs_b2):
    # the region below every level-1 hyperplane has only the highest root
    # as a ceiling
    regions = regions_in_dominant(rs_b2, range(4))
    idx = root_index(rs_b2)
    full = next(r for r in regions if r.ideal == frozenset(range(4)))
    assert ceiling_oracle(rs_b2, range(4), full) == {idx[(2, 1)]}


def test_ceiling_oracle_two_simples(rs_b2):
    regions = regions_in_dominant(rs_b2, range(4))
    idx = root_index(rs_b2)
    two = frozenset({idx[(1, 0)], idx[(0, 1)]})
    region = next(r for r in regions if r.ideal == two)
    assert ceiling_oracle(rs_b2, range(4), region) == two


@pytest.mark.parametrize("name", ["A2", "B2"])
def test_ceiling_oracle_matches_max_elements_everywhere(name):
    rs = get_rs(name)
    for w in weyl_group(rs):
        E = complement_of_inversions(rs, w)
        for region in regions_in_dominant(rs, E):
            assert ceiling_oracle(rs, E, region) == region.ceiling


# -- cone regions --------------------------------------------------------------------


def test_b2_st_cone_regions(rs_b2):
    st = element_from_word(rs_b2, (0, 1))
    regions = regions_in_cone(rs_b2, st)
    assert len(regions) == 3
    ceilings = {frozenset(roots_of(rs_b2, r.ceiling)) for r in regions}
    assert ceilings == {frozenset(), frozenset({(0, 1)}), frozenset({(1, 1)})}


def test_identity_cone_is_dominant(rs_b2):
    e = element_from_word(rs_b2, ())
    a = regions_in_cone(rs_b2, e)
    b = regions_in_dominant(rs_b2, range(4))
    assert [(r.ideal, r.ceiling, r.witness) for r in a] == [
        (r.ideal, r.ceiling, r.witness) for r in b
    ]


def test_b2_total_regions(rs_b2):
    assert sum(len(regions_in_cone(rs_b2, w)) for w in weyl_group(rs_b2)) == 25


def test_cone_witness_lands_in_cone(rs_b2):
    for w in weyl_group(rs_b2):
        inv = inversion_set(rs_b2, w)
        for region in regions_in_cone(rs_b2, w):
            nums, den = region.witness
            assert den > 0
            for i, coords in enumerate(rs_b2.positive_roots):
                v = sum(c * x for c, x in zip(coords, nums))  # den * pairing
                if i in inv:
                    assert v < 0
                elif i in region.ideal:
                    assert 0 < v < den
                else:
                    assert v > den


def test_transport_rejects_root_sent_negative(rs_b2):
    # s1 sends a_1 to -a_1, so a dominant region whose ideal holds a_1 is
    # not one of the regions the cone s1 C is built from
    s = element_from_word(rs_b2, (0,))
    a1 = root_index(rs_b2)[(1, 0)]
    region = next(
        r for r in regions_in_dominant(rs_b2, range(4)) if a1 in r.ideal
    )
    with pytest.raises(RuntimeError, match="invariant violated"):
        transport_regions(rs_b2, s, [region])


# -- flats ------------------------------------------------------------------------------


def test_b2_identity_flats(rs_b2):
    e = element_from_word(rs_b2, ())
    poset = flats_in_cone(rs_b2, e)
    assert len(poset) == 6
    by_codim = {}
    for f in poset.flats:
        by_codim.setdefault(f.geometry.codim, []).append(f)
    assert len(by_codim[0]) == 1 and len(by_codim[1]) == 4 and len(by_codim[2]) == 1
    point = by_codim[2][0]
    assert roots_of(rs_b2, point.generators) == {(1, 0), (0, 1)}
    assert by_codim[0][0].mobius == 1
    assert all(f.mobius == -1 for f in by_codim[1])


def test_b2_st_flats(rs_b2):
    st = element_from_word(rs_b2, (0, 1))
    poset = flats_in_cone(rs_b2, st)
    gens = {frozenset(roots_of(rs_b2, f.generators)) for f in poset.flats}
    assert gens == {frozenset(), frozenset({(0, 1)}), frozenset({(1, 1)})}


def test_flats_in_dominant_matches_identity_cone(rs_b2):
    e = element_from_word(rs_b2, ())
    a = flats_in_dominant(rs_b2, range(4))
    b = flats_in_cone(rs_b2, e)
    assert [(f.generators, f.geometry, f.mobius) for f in a.flats] == [
        (f.generators, f.geometry, f.mobius) for f in b.flats
    ]


def test_a1_flat_oracle():
    rs = get_rs("A1")
    e = element_from_word(rs, ())
    poset = flats_oracle(rs, e)
    assert len(poset) == 2
    assert {f.geometry.codim for f in poset.flats} == {0, 1}


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_flats_oracle_matches_construction(name):
    rs = get_rs(name)
    for w in weyl_group(rs):
        a = flats_in_cone(rs, w)
        b = flats_oracle(rs, w)
        key = lambda p: {
            f.geometry.rref: (f.generators, f.mobius) for f in p.flats
        }
        assert key(a) == key(b)


def test_flats_oracle_rank_bound():
    rs = get_rs("B4")
    with pytest.raises(ValueError):
        flats_oracle(rs, element_from_word(rs, ()))


def test_intersection_poset_structure(rs_b2):
    e = element_from_word(rs_b2, ())
    poset = flats_in_cone(rs_b2, e)
    # reverse inclusion: the ambient space is the unique minimum
    assert all(poset.leq(0, j) for j in range(len(poset)))
    for j, f in enumerate(poset.flats):
        assert poset.lower_interval_size(j) == 2 ** f.geometry.codim
        assert poset.interval_mobius(0, j) == f.mobius


# -- Poincare polynomials ---------------------------------------------------------------


def test_b2_poincare_values(rs_b2):
    e = element_from_word(rs_b2, ())
    st = element_from_word(rs_b2, (0, 1))
    assert poincare(rs_b2, e) == IntPolynomial([1, 4, 1])
    assert poincare(rs_b2, st) == IntPolynomial([1, 2])


def test_b2_poincare_sum(rs_b2):
    total = sum((poincare(rs_b2, w) for w in weyl_group(rs_b2)), IntPolynomial())
    assert total == IntPolynomial([8, 16, 1])
    assert total(1) == 25


def test_b2_poincare_multiset(rs_b2):
    polys = sorted(tuple(poincare(rs_b2, w)) for w in weyl_group(rs_b2))
    assert polys == sorted(
        [
            (1, 4, 1),
            (1, 3),
            (1, 3),
            (1, 2),
            (1, 2),
            (1, 1),
            (1, 1),
            (1,),
        ]
    )


@pytest.mark.parametrize("name", RANK_LE_3)
def test_poincare_counts_flats_and_regions(name):
    rs = get_rs(name)
    for w in weyl_group(rs):
        poly = poincare(rs, w)
        poset = flats_in_cone(rs, w)
        assert poly == poset.poincare_polynomial()
        assert poly(1) == len(poset) == len(regions_in_cone(rs, w))


# -- full arrangement ---------------------------------------------------------------------


def test_b2_full_arrangement(rs_b2):
    assert full_arrangement_poincare(rs_b2) == IntPolynomial([1, 8, 16])


def test_a1_full_arrangement():
    assert full_arrangement_poincare(get_rs("A1")) == IntPolynomial([1, 2])


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_full_arrangement_region_count(name):
    # evaluation at 1 counts all regions of the arrangement, which must
    # agree with the sum of per-cone counts
    rs = get_rs(name)
    total = sum(len(regions_in_cone(rs, w)) for w in weyl_group(rs))
    assert full_arrangement_poincare(rs)(1) == total == numerology(rs).parking


def test_full_arrangement_rank_bound():
    with pytest.raises(ValueError):
        full_arrangement_poincare(get_rs("B4"))


# -- extended levels --------------------------------------------------------------------------


def test_a2_level_two_counterexample():
    data = fuss_dominant(get_rs("A2"), 2)
    assert data.n_flats == 11
    assert data.n_regions == 12
    assert data.max_abs_mobius == 2
    assert dict(data.abs_mobius_counts)[2] == 1
    assert data.poincare(1) == 12


def test_a3_level_two_poincare():
    data = fuss_dominant(get_rs("A3"), 2)
    assert data.poincare == IntPolynomial([1, 12, 29, 13])
    assert data.poincare != IntPolynomial([1, 12, 28, 14])
    assert data.n_regions == 55  # (d_i + 2h)/d_i with d=(2,3,4), h=4


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_level_one_reduces_to_base_theory(name):
    rs = get_rs(name)
    data = fuss_dominant(rs, 1)
    e = element_from_word(rs, ())
    assert data.poincare == poincare(rs, e)
    assert data.n_regions == numerology(rs).catalan
    assert data.max_abs_mobius == 1


def test_fuss_bounds():
    with pytest.raises(ValueError):
        fuss_dominant(get_rs("B4"), 2)
    with pytest.raises(ValueError):
        fuss_dominant(get_rs("A2"), 4)


# -- reports ---------------------------------------------------------------------------------


def test_cone_report_b2(rs_b2):
    st = element_from_word(rs_b2, (0, 1))
    report = cone_report(rs_b2, st)
    assert report["word"] == "12"
    assert report["poincare"] == [1, 2]
    assert len(report["regions"]) == 3
    assert len(report["flats"]) == 3
    assert report["inversions"] == [[1, 0], [2, 1]]
    witness = [Fraction(x) for x in report["regions"][0]["witness"]]
    assert len(witness) == 2
