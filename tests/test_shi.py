import hashlib
import random
from fractions import Fraction

import pytest

from conftest import RANK_4, RANK_LE_3, bumped_point_table, deletion_poset, get_rs
from shicone import shi
from shicone.exactgeom import (
    EQ,
    GT,
    check_witness,
    contains_flat,
    feasible_rows,
    flat_contains,
    intersect_hyperplanes,
    meet,
)
from shicone.poly import IntPolynomial
from shicone.posets import FinitePoset
from shicone.rootsys import (
    element_from_word,
    inverse_element,
    inversion_set,
    numerology,
    root_index,
    weyl_group,
)
from shicone.shi import (
    AntichainPoints,
    antichain_points,
    ceiling_oracle,
    complement_of_inversions,
    cone_poset,
    cone_report,
    dominant_sign_oracle,
    flats_in_cone,
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


# -- dominant regions ------------------------------------------------------------


def test_b2_dominant_regions(rs_b2):
    regions = regions_in_dominant(rs_b2, deletion_poset(rs_b2, range(4)))
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
    regions = regions_in_dominant(rs_b2, deletion_poset(rs_b2, []))
    assert len(regions) == 1
    assert regions[0].ceiling == frozenset()
    nums, den = regions[0].witness
    assert den > 0 and all(x > 0 for x in nums)


def test_a3_dominant_region_count_with_oracle(rs_a3):
    E = range(len(rs_a3.positive_roots))
    regions = regions_in_dominant(rs_a3, deletion_poset(rs_a3, E))
    assert len(regions) == 14
    oracle = dominant_sign_oracle(rs_a3, E)
    assert set(oracle) == {r.ideal for r in regions}


def test_region_witness_predicates(rs_b2):
    E = [0, 3]
    for region in regions_in_dominant(rs_b2, deletion_poset(rs_b2, E)):
        nums, den = region.witness
        assert den > 0
        for i, coords in enumerate(rs_b2.positive_roots):
            v = sum(c * x for c, x in zip(coords, nums))  # den * pairing
            assert v > 0
            if i in region.ideal:
                assert v < den
            elif i in E:
                assert v > den


def test_sign_oracle_extends_only_feasible_prefixes(monkeypatch, fresh_point_table):
    # one kernel call for the bare dominant cone, then two per feasible
    # proper prefix: the oracle never extends an empty prefix
    rs = get_rs("B3")
    kernel = shi.feasible_rows
    answers = []

    def counting(dim, rows):
        witness = kernel(dim, rows)
        answers.append(witness is not None)
        return witness

    monkeypatch.setattr(shi, "feasible_rows", counting)
    for w in weyl_group(rs):
        answers.clear()
        oracle = dominant_sign_oracle(rs, complement_of_inversions(rs, w))
        assert len(answers) == 1 + 2 * (sum(answers) - len(oracle))


def test_sign_oracle_rank_bound():
    with pytest.raises(ValueError):
        dominant_sign_oracle(get_rs("B4"), range(16))


# -- ceilings ----------------------------------------------------------------------


def test_ceiling_oracle_empty_ideal(rs_b2):
    region = regions_in_dominant(rs_b2, deletion_poset(rs_b2, []))[0]
    assert ceiling_oracle(rs_b2, [], region) == frozenset()


def test_ceiling_oracle_bounded_alcove(rs_b2):
    # the region below every level-1 hyperplane has only the highest root
    # as a ceiling
    regions = regions_in_dominant(rs_b2, deletion_poset(rs_b2, range(4)))
    idx = root_index(rs_b2)
    full = next(r for r in regions if r.ideal == frozenset(range(4)))
    assert ceiling_oracle(rs_b2, range(4), full) == {idx[(2, 1)]}


def test_ceiling_oracle_two_simples(rs_b2):
    regions = regions_in_dominant(rs_b2, deletion_poset(rs_b2, range(4)))
    idx = root_index(rs_b2)
    two = frozenset({idx[(1, 0)], idx[(0, 1)]})
    region = next(r for r in regions if r.ideal == two)
    assert ceiling_oracle(rs_b2, range(4), region) == two


def _kernel_ceiling(rs, E, region):
    """The ceiling by one kernel call per root of the ideal: pin its
    hyperplane to 1 and keep every other region row strict."""
    n = rs.rank
    found = set()
    for b in region.ideal:
        rows = [(tuple(int(i == j) for j in range(n)), 0, GT) for i in range(n)]
        for g in sorted(E):
            coords = rs.positive_roots[g]
            if g == b:
                rows.append((coords, 1, EQ))
            elif g in region.ideal:
                rows.append((tuple(-c for c in coords), -1, GT))
            else:
                rows.append((coords, 1, GT))
        if feasible_rows(n, rows) is not None:
            found.add(b)
    return found


def _cone_sample(name):
    """Every cone of a rank <= 3 type; the dominant cone and a seeded
    sample of eight others of a rank-4 type."""
    W = weyl_group(get_rs(name))
    if name in RANK_LE_3:
        return list(W)
    return [W[0]] + random.Random(name).sample(W[1:], 8)


@pytest.mark.parametrize("name", RANK_LE_3 + RANK_4)
def test_ceiling_oracle_matches_max_elements_everywhere(name):
    rs = get_rs(name)
    for w in _cone_sample(name):
        E = complement_of_inversions(rs, w)
        for region in regions_in_dominant(rs, cone_poset(rs, w)):
            oracle = ceiling_oracle(rs, E, region)
            assert oracle == region.ceiling
            assert oracle == _kernel_ceiling(rs, E, region)


@pytest.mark.parametrize("name", ["B3", "F4"])
def test_ceiling_oracle_calls_kernel_only_for_ceilings(
    name, monkeypatch, fresh_point_table
):
    # every non-facet is settled by a checked certificate and every facet
    # by a checked table point, so the oracle never runs the kernel; with
    # an empty table the kernel runs once per ceiling root and never on
    # an infeasible probe
    rs = get_rs(name)
    calls = []

    def counting(dim, rows):
        witness = feasible_rows(dim, rows)
        calls.append(witness is not None)
        return witness

    antichain_points(rs)  # built before the kernel is counted
    for w in _cone_sample(name):
        E = complement_of_inversions(rs, w)
        regions = regions_in_dominant(rs, cone_poset(rs, w))
        with monkeypatch.context() as m:
            m.setattr(shi, "feasible_rows", counting)
            calls.clear()
            for region in regions:
                assert ceiling_oracle(rs, E, region) == region.ceiling
            assert calls == []
            m.setattr(shi, "antichain_points", lambda rs: AntichainPoints({}, {}))
            for region in regions:
                calls.clear()
                ceiling_oracle(rs, E, region)
                assert len(calls) == len(region.ceiling) and all(calls)


# -- cone subposets ----------------------------------------------------------------


@pytest.mark.parametrize("name", RANK_LE_3 + RANK_4)
def test_cone_poset_holds_the_roots_w_keeps_positive(name):
    # inversion_set(rs, w) is Inv(w^{-1}), so the roots that w keeps
    # positive, Phi+ - Inv(w), are the complement of the inversion set of
    # w^{-1}; w sends them onto the complement of Inv(w^{-1}), and the
    # cone's subposet has one root fewer per letter of the reduced word
    rs = get_rs(name)
    N = len(rs.positive_roots)
    for w in weyl_group(rs):
        kept = set(complement_of_inversions(rs, w))
        assert kept == set(range(N)) - inversion_set(rs, inverse_element(rs, w))
        assert {w.perm[i] for i in kept} == set(range(N)) - inversion_set(rs, w)
        assert len(cone_poset(rs, w)) == N - len(w.word)


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
    b = regions_in_dominant(rs_b2, deletion_poset(rs_b2, range(4)))
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
    dominant = regions_in_dominant(rs_b2, deletion_poset(rs_b2, range(4)))
    region = next(r for r in dominant if a1 in r.ideal)
    with pytest.raises(RuntimeError, match="invariant violated"):
        transport_regions(rs_b2, s, [region])


# -- flats ------------------------------------------------------------------------------


def test_b2_identity_flats(rs_b2):
    e = element_from_word(rs_b2, ())
    poset = flats_in_cone(rs_b2, cone_poset(rs_b2, e), e)
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
    poset = flats_in_cone(rs_b2, cone_poset(rs_b2, st), st)
    gens = {frozenset(roots_of(rs_b2, f.generators)) for f in poset.flats}
    assert gens == {frozenset(), frozenset({(0, 1)}), frozenset({(1, 1)})}


def test_flats_in_dominant_matches_identity_cone(rs_b2):
    # the deletion to all roots is the identity cone's subposet, and the
    # flats built from either are the same
    e = element_from_word(rs_b2, ())
    deletion = deletion_poset(rs_b2, range(4))
    assert deletion == cone_poset(rs_b2, e)
    a = flats_in_cone(rs_b2, deletion, e)
    b = flats_in_cone(rs_b2, cone_poset(rs_b2, e), e)
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
        a = flats_in_cone(rs, cone_poset(rs, w), w)
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
    poset = flats_in_cone(rs_b2, cone_poset(rs_b2, e), e)
    # reverse inclusion: the ambient space is the unique minimum
    assert all(poset.leq(0, j) for j in range(len(poset)))
    for j, f in enumerate(poset.flats):
        below = sum(poset.leq(i, j) for i in range(len(poset)))
        assert below == 2 ** f.geometry.codim
        assert poset.interval_mobius(0, j) == f.mobius


def test_interval_mobius_vanishes_off_the_order(rs_b2):
    e = element_from_word(rs_b2, ())
    poset = flats_in_cone(rs_b2, cone_poset(rs_b2, e), e)
    n = len(poset)
    pairs = [(i, j) for i in range(n) for j in range(n) if not poset.leq(i, j)]
    assert pairs
    assert all(poset.interval_mobius(i, j) == 0 for i, j in pairs)


def _level_planes(rs, levels):
    return {(i, k): (c, k) for i, c in enumerate(rs.positive_roots) for k in levels}


def _closure_posets(rs):
    """The whole level-0/1 arrangement, the level 1..3 dominant closure
    and the closure oracle on every cone, each with its hyperplanes."""
    planes = _level_planes(rs, (0, 1))
    yield planes, shi._closure_poset(rs, planes)
    planes = _level_planes(rs, (1, 2, 3))
    yield planes, shi._closure_poset(
        rs, planes, inside_rows=shi._positivity_rows(rs.rank)
    )
    for w in weyl_group(rs):
        inv = inversion_set(rs, w)
        planes = {g: (c, 1) for g, c in enumerate(rs.positive_roots) if g not in inv}
        yield planes, flats_oracle(rs, w)


@pytest.mark.parametrize("name", RANK_LE_3)
def test_generator_order_is_geometric_inclusion(name):
    # each flat's generators are exactly the hyperplanes containing it,
    # and the order read off them agrees with containment of the flats,
    # on the posets whose generators are collected by hyperplane insertion
    for planes, poset in _closure_posets(get_rs(name)):
        geos = [f.geometry for f in poset.flats]
        for f in poset.flats:
            assert f.generators == {
                label
                for label, (normal, level) in planes.items()
                if flat_contains(f.geometry, normal, level)
            }
        for i, gi in enumerate(geos):
            for j, gj in enumerate(geos):
                assert poset.leq(i, j) == contains_flat(gi, gj)


def _insertion_step(rank, planes, flat):
    """Number of hyperplanes inserted when the closure finds ``flat``: the
    first prefix of ``planes`` whose members among its generators cut it
    out."""
    members = []
    for k, label in enumerate(planes):
        if intersect_hyperplanes(rank, members).rref == flat.geometry.rref:
            return k
        if label in flat.generators:
            members.append(planes[label])
    return len(planes)


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "B3", "C3"])
@pytest.mark.parametrize("levels", [(0, 1), (1, 2, 3)])
def test_closure_intersects_each_flat_once_per_later_hyperplane(
    name, levels, monkeypatch
):
    # one meet per kept flat and hyperplane inserted after the closure
    # found it, which both tests containment and cuts the new flat: no
    # flat is rebuilt per parent
    rs = get_rs(name)
    planes = _level_planes(rs, levels)
    inside = shi._positivity_rows(rs.rank) if levels[0] else None
    calls = []

    def counting(flat, normal, rhs):
        calls.append((flat, normal, rhs))
        return meet(flat, normal, rhs)

    monkeypatch.setattr(shi, "meet", counting)
    monkeypatch.setattr(shi, "flat_contains", None)
    monkeypatch.setattr(shi, "intersect_hyperplanes", None)
    poset = shi._closure_poset(rs, planes, inside_rows=inside)
    order = list(planes)
    expected = sum(
        len(order) - _insertion_step(rs.rank, planes, f) for f in poset.flats
    )
    assert len(calls) == expected


# sha256 of repr() of the oracle outputs below: any change to a flat,
# its generators or Mobius value, a cell or a witness changes it.
ORACLE_DIGEST = "a87289a9f8b1666c4353cadb2ddf7f190bdbac186d07b8890962b52bcb7cdf4c"


def _flats(poset):
    return [
        (f.geometry.rref, sorted(f.generators), f.geometry.codim, f.mobius)
        for f in poset.flats
    ]


def test_oracle_outputs_pinned():
    data = []
    for name in ("G2", "B3"):
        rs = get_rs(name)
        data.append(_flats(shi._closure_poset(rs, _level_planes(rs, (0, 1)))))
        for m in (1, 2, 3):
            planes = _level_planes(rs, range(1, m + 1))
            inside = shi._positivity_rows(rs.rank)
            data.append(_flats(shi._closure_poset(rs, planes, inside_rows=inside)))
            data.append(shi._cells(rs, range(len(rs.positive_roots)), m))
    rs = get_rs("B3")
    for w in weyl_group(rs):
        data.append(_flats(flats_oracle(rs, w)))
        oracle = dominant_sign_oracle(rs, complement_of_inversions(rs, w))
        data.append([(sorted(below), witness) for below, witness in oracle.items()])
    assert hashlib.sha256(repr(data).encode()).hexdigest() == ORACLE_DIGEST


# sha256 of repr() of the construction outputs below: any change to a
# region's ideal, ceiling or witness, or to a flat's rref, generators,
# codim or Mobius value changes it.
CONSTRUCTION_DIGEST = "46c8836c9246491ee08b76748fb82c75f6b9e03d493f0f3de842b2431ba5c469"


def test_construction_outputs_pinned():
    def regions(found):
        return [(sorted(r.ideal), sorted(r.ceiling), r.witness) for r in found]

    rng = random.Random(17)
    cones = [(get_rs("B3"), w) for w in weyl_group(get_rs("B3"))]
    for name in RANK_4:
        rs = get_rs(name)
        cones += [(rs, w) for w in rng.sample(weyl_group(rs), 8)]
    data = []
    for rs, w in cones:
        data.append(regions(regions_in_cone(rs, w)))
        data.append(_flats(flats_in_cone(rs, cone_poset(rs, w), w)))
    for name, E in (("B3", (0, 2, 3, 5, 6, 8)), ("F4", range(0, 24, 2))):
        rs = get_rs(name)
        sub = deletion_poset(rs, E)
        data.append(regions(regions_in_dominant(rs, sub)))
        data.append(_flats(flats_in_cone(rs, sub, element_from_word(rs, ()))))
    assert sum(map(len, data)) == 1900
    assert hashlib.sha256(repr(data).encode()).hexdigest() == CONSTRUCTION_DIGEST


def test_closure_asks_kernel_once_per_flat(monkeypatch, fresh_point_table):
    rs = get_rs("B3")
    systems = []
    kernel = shi.feasible_rows

    def recording(dim, rows):
        systems.append(tuple(rows))
        return kernel(dim, rows)

    monkeypatch.setattr(shi, "feasible_rows", recording)
    runs = [lambda w=w: flats_oracle(rs, w) for w in weyl_group(rs)]
    runs.append(
        lambda: shi._closure_poset(
            rs, _level_planes(rs, (1, 2, 3)), inside_rows=shi._positivity_rows(rs.rank)
        )
    )
    total = 0
    for run in runs:
        systems.clear()
        run()
        assert len(set(systems)) == len(systems)
        total += len(systems)
    assert total > 0


def _off_cone_and_no_kernel(rs):
    """Patches: the point table with the first coordinate of every face
    point negated, which puts it outside the dominant cone (and so, moved
    by w, outside wC), and a kernel that finds no point."""
    table = antichain_points(rs)
    face = {A: ((-nums[0], *nums[1:]), den) for A, (nums, den) in table.face.items()}
    off_cone = AntichainPoints(face, table.facet)
    return {
        "antichain_points": lambda rs: off_cone,
        "feasible_rows": lambda dim, rows: None,
    }


@pytest.mark.parametrize(
    "fakes, build, message",
    [
        # the kernel finds no point in a region built from an antichain
        (
            lambda rs: {"feasible_rows": lambda dim, rows: None},
            lambda rs: regions_in_dominant(rs, deletion_poset(rs, range(4))),
            "empty region",
        ),
        # the last hyperplane of an antichain adds nothing to the others
        (
            lambda rs: {
                "intersect_hyperplanes": lambda dim, rows: intersect_hyperplanes(
                    dim, list(rows)[:-1]
                )
            },
            lambda rs: flats_in_cone(
                rs, cone_poset(rs, element_from_word(rs, ())), element_from_word(rs, ())
            ),
            "hyperplanes are dependent",
        ),
        # neither the table's point, pushed out of the cone, nor the
        # kernel shows a point of a flat inside its cone
        (
            _off_cone_and_no_kernel,
            lambda rs: flats_in_cone(
                rs, deletion_poset(rs, range(4)), element_from_word(rs, ())
            ),
            "does not meet its cone",
        ),
    ],
    ids=["empty-region", "dependent-antichain", "flat-misses-cone"],
)
def test_invariant_violation_fails_construction(
    rs_b2, monkeypatch, fresh_point_table, fakes, build, message
):
    for name, fake in fakes(rs_b2).items():
        monkeypatch.setattr(shi, name, fake)
    with pytest.raises(RuntimeError, match=message):
        build(rs_b2)


def test_flat_on_outside_hyperplane_fails_construction(rs_b2, monkeypatch):
    monkeypatch.setattr(shi, "flat_contains", lambda flat, normal, level: True)
    e = element_from_word(rs_b2, ())
    with pytest.raises(RuntimeError, match="outside its antichain"):
        flats_in_cone(rs_b2, cone_poset(rs_b2, e), e)


# -- the antichain point table ---------------------------------------------------------

#: (antichains, sum of their sizes) of each rank-4 root poset
POINT_TABLE_SIZES = {
    "A4": (42, 84),
    "B4": (70, 140),
    "C4": (70, 140),
    "D4": (50, 100),
    "F4": (105, 210),
}


def _table_rows(rs, A, pinned):
    """Rows of a table point of the antichain A, written out from the
    root poset: x > 0, b . x = 1 for b in ``pinned``, below 1 on the rest
    of A's order ideal J and above 1 outside J."""
    n = rs.rank
    J = shi.root_poset(rs).ideal_generated(A)
    rows = [(tuple(int(i == j) for j in range(n)), 0, GT) for i in range(n)]
    for g, coords in enumerate(rs.positive_roots):
        if g in pinned:
            rows.append((coords, 1, EQ))
        elif g in J:
            rows.append((tuple(-c for c in coords), -1, GT))
        else:
            rows.append((coords, 1, GT))
    return rows


@pytest.mark.parametrize("name", RANK_LE_3 + RANK_4)
def test_point_table_is_complete_and_checked(name):
    rs = get_rs(name)
    antichains = shi.root_poset(rs).antichains()
    table = antichain_points(rs)
    assert set(table.face) == set(antichains)
    assert set(table.facet) == {(A, b) for A in antichains for b in A}
    if name in POINT_TABLE_SIZES:
        assert (len(table.face), len(table.facet)) == POINT_TABLE_SIZES[name]
    for A, point in table.face.items():
        assert check_witness(rs.rank, _table_rows(rs, A, A), point)
    for (A, b), point in table.facet.items():
        assert check_witness(rs.rank, _table_rows(rs, A, {b}), point)


@pytest.mark.parametrize("name", RANK_LE_3 + RANK_4)
def test_moved_face_points_lie_on_flats_in_cone(name, monkeypatch, fresh_point_table):
    # the face point of each antichain, moved by w, lies on the flat the
    # construction builds for it and inside wC; the posets built from the
    # table equal those built by the kernel alone
    rs = get_rs(name)
    faces = antichain_points(rs).face
    cones = _cone_sample(name)
    built = [flats_in_cone(rs, cone_poset(rs, w), w) for w in cones]
    for w, poset in zip(cones, built):
        winv = element_from_word(rs, reversed(w.word))
        walls = shi.cone_rows(rs, w)
        by_gens = {f.generators: f.geometry for f in poset.flats}
        for A in shi.root_poset(rs).restrict(complement_of_inversions(rs, w)).antichains():
            point = shi.act_point(rs, winv, faces[A])
            flat = by_gens[frozenset(w.perm[a] for a in A)]
            on_flat = [(row[:-1], row[-1], EQ) for row in flat.rref]
            assert check_witness(rs.rank, on_flat + walls, point)
    monkeypatch.setattr(shi, "antichain_points", lambda rs: AntichainPoints({}, {}))
    assert [_flats(p) for p in built] == [
        _flats(flats_in_cone(rs, cone_poset(rs, w), w)) for w in cones
    ]


@pytest.mark.parametrize("name", ["B3", "D4"])
def test_mutant_point_table_falls_back_to_kernel(name, monkeypatch, fresh_point_table):
    rs = get_rs(name)
    mutant = bumped_point_table(rs, antichain_points(rs))
    for A, point in mutant.face.items():
        assert check_witness(rs.rank, _table_rows(rs, A, A), point) == (not A)
    for (A, b), point in mutant.facet.items():
        assert not check_witness(rs.rank, _table_rows(rs, A, {b}), point)

    calls = []

    def counting(dim, rows):
        calls.append(dim)
        return feasible_rows(dim, rows)

    cones = _cone_sample(name)
    regions = [regions_in_dominant(rs, cone_poset(rs, w)) for w in cones]

    def answers():
        """Ceilings and flats of every cone, with the kernel calls of each."""
        out = []
        for w, found in zip(cones, regions):
            E = complement_of_inversions(rs, w)
            calls.clear()
            ceilings = [ceiling_oracle(rs, E, r) for r in found]
            out.append((ceilings, len(calls)))
            calls.clear()
            out.append((_flats(flats_in_cone(rs, cone_poset(rs, w), w)), len(calls)))
        return out

    monkeypatch.setattr(shi, "feasible_rows", counting)
    expected = answers()
    monkeypatch.setattr(shi, "antichain_points", lambda rs: mutant)
    got = answers()
    assert [a for a, _ in got] == [a for a, _ in expected]
    assert all(n == 0 for _, n in expected)
    for (ceilings, n_ceiling), (flats, n_flat), found in zip(got[::2], got[1::2], regions):
        # every facet point and every face point off the ambient space is refused
        assert n_ceiling == sum(len(r.ceiling) for r in found)
        assert n_flat == len(flats) - 1


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
        poset = flats_in_cone(rs, cone_poset(rs, w), w)
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


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("name", RANK_LE_3)
def test_fuss_catalan_counts(name, m):
    # the cells of the level-m extension in the dominant cone are counted
    # by prod(m h + d) / prod(d), and so is the Mobius mass of its flats
    rs = get_rs(name)
    data = fuss_dominant(rs, m)
    num = den = 1
    for d in rs.degrees:
        num *= m * rs.coxeter_number + d
        den *= d
    assert data.n_regions == num // den
    assert data.poincare(1) == data.n_regions


def test_fuss_bounds():
    with pytest.raises(ValueError):
        fuss_dominant(get_rs("B4"), 2)
    with pytest.raises(ValueError):
        fuss_dominant(get_rs("A2"), 4)
    with pytest.raises(ValueError):
        fuss_dominant(get_rs("A2"), 0)


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


def test_reports_restrict_and_enumerate_once(monkeypatch):
    # a report reads one restriction of the root poset for its regions,
    # flats and Poincare polynomial, and enumerates its antichains once
    rs = get_rs("F4")
    shi.root_poset(rs).antichains()
    antichain_points(rs)
    calls = []
    restrict = FinitePoset.restrict
    enumerate_antichains = FinitePoset._enumerate_antichains

    def counting_restrict(self, S):
        calls.append("restrict")
        return restrict(self, S)

    def counting_enumerate(self):
        calls.append("enumerate")
        return enumerate_antichains(self)

    monkeypatch.setattr(FinitePoset, "restrict", counting_restrict)
    monkeypatch.setattr(FinitePoset, "_enumerate_antichains", counting_enumerate)
    for report in (
        lambda: cone_report(rs, weyl_group(rs)[500]),
        lambda: shi.deletion_report(rs, range(0, 24, 2)),
    ):
        calls.clear()
        report()
        assert calls == ["restrict", "enumerate"]
