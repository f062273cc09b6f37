import hashlib
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import RANK_4, RANK_LE_3, bumped_point_table, clear_shi_caches, get_rs
from shicone import exactgeom, shi
from shicone.exactgeom import (
    EQ,
    GT,
    check_farkas,
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
    root_poset,
    weyl_group,
)
from shicone.shi import (
    AntichainPoints,
    antichain_points,
    antichain_table,
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
    region_rows,
    regions_in_cone,
    regions_in_dominant,
    transport_regions,
)


def roots_of(rs, indices):
    return {rs.positive_roots[i] for i in indices}


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


def test_sign_oracle_extends_only_feasible_prefixes(monkeypatch, fresh_point_table):
    # the first oracle call of a type walks the whole arrangement once:
    # its first kernel call is the bare dominant cone, and every later
    # system, less its last interval (one row at m = 1), is satisfied by a
    # point the walk held before the call, so it never extends an empty
    # prefix and at m = 1 the kernel never finds a child empty; every
    # later cone is a projection of that walk and asks no kernel call
    rs = get_rs("B3")
    kernel = shi.feasible_rows
    systems, answers = [], []

    def recording(dim, rows):
        witness = kernel(dim, rows)
        systems.append(list(rows))
        answers.append(witness)
        return witness

    monkeypatch.setattr(shi, "feasible_rows", recording)
    first, *rest = weyl_group(rs)
    dominant_sign_oracle(rs, complement_of_inversions(rs, first))
    assert None not in answers
    assert systems[0] == list(shi._positivity_rows(rs.rank))
    for k, rows in enumerate(systems[1:], 1):
        assert any(check_witness(rs.rank, rows[:-1], p) for p in answers[:k])
    walked = len(systems)
    for w in rest:
        dominant_sign_oracle(rs, complement_of_inversions(rs, w))
    assert walked > 1 and len(systems) == walked


def test_sign_oracle_rank_bound(monkeypatch):
    # the oracle keeps no cap of its own: above rank 4 the kernel refuses
    # its first system, the bare cone, before the state proofs are built
    def unbuilt(rs, m):
        raise AssertionError("state proofs built above the kernel's bound")

    monkeypatch.setattr(shi, "_state_proofs", unbuilt)
    for name in ("A5", "A16"):
        rs = get_rs(name)
        bound = f"dimension {rs.rank} exceeds the supported bound {exactgeom.MAX_DIM}"
        with pytest.raises(ValueError, match=bound):
            dominant_sign_oracle(rs, range(len(rs.positive_roots)))


@pytest.mark.parametrize("name", RANK_LE_3 + RANK_4)
def test_sign_oracle_projects_the_per_deletion_walk(name):
    # the projection of the whole arrangement's cells gives each cone's
    # deletion the cells of its own walk, key for key and in its order,
    # and each witness lies inside its region's rows: on every cone of a
    # rank <= 3 type and of A4, and on the seeded sample of the other
    # rank-4 types that verify's rank-4 oracle test runs
    rs = get_rs(name)
    cones = weyl_group(rs)
    if rs.rank == 4 and name != "A4":
        cones = random.Random(name).sample(cones, 12)
    for w in cones:
        E = complement_of_inversions(rs, w)
        oracle = dominant_sign_oracle(rs, E)
        walk = [frozenset(shi._bits(held[0])) for held, _ in shi._cells(rs, sorted(E), 1)]
        assert list(oracle) == walk
        for below, witness in oracle.items():
            assert check_witness(rs.rank, region_rows(rs, E, below), witness)


def test_sign_oracle_reads_no_poset_or_antichain_table(monkeypatch, fresh_point_table):
    # with the root poset, the antichain table and the point table all
    # refusing, the whole-arrangement walk is built and every B3 cone is
    # answered as the antichain route answers it
    rs = get_rs("B3")
    deletions = [complement_of_inversions(rs, w) for w in weyl_group(rs)]
    expected = [{r.ideal for r in regions_in_dominant(rs, E)} for E in deletions]
    clear_shi_caches()
    for name in ("root_poset", "antichain_table", "antichain_points"):

        def refusing(*args, name=name):
            raise AssertionError(f"sign oracle read {name}")

        monkeypatch.setattr(shi, name, refusing)
    for E, ideals in zip(deletions, expected):
        assert set(dominant_sign_oracle(rs, E)) == ideals


@pytest.mark.parametrize("m", [1, 2, 3])
def test_refused_cell_proofs_fall_back_to_kernel(m, monkeypatch, fresh_point_table):
    # a child admitted without the kernel is one whose rows its parent's
    # point satisfies by check_witness, and a child dropped without it is
    # one a state proof refutes; with every signature emptied exactly the
    # inherited children reach the kernel, and with the table cleared
    # and check_farkas refused exactly the refuted ones, each found
    # empty, while each of the per-(type, m) certificates is offered
    # once; the cells do not change
    rs = get_rs("B3")
    roots = range(len(rs.positive_roots))
    proofs = shi._state_proofs(rs, m)
    inherited, refuted = Counter(), Counter()
    for k, choices, point, j, rows in _children(rs, roots, m):
        if check_witness(rs.rank, rows, point):
            inherited[tuple(rows)] += 1
        elif _refuted(proofs, roots[k], j, _held(roots, choices, m)):
            refuted[tuple(rows)] += 1
    systems, answers = [], []

    def recording(dim, rows):
        witness = feasible_rows(dim, rows)
        systems.append(tuple(rows))
        answers.append(witness)
        return witness

    monkeypatch.setattr(shi, "feasible_rows", recording)
    choices = [_choices(roots, held) for held, _ in shi._cells(rs, roots, m)]
    asked, empty = Counter(systems), answers.count(None)
    assert inherited and refuted
    assert not asked & (inherited + refuted)
    if m == 1:
        assert empty == 0

    with monkeypatch.context() as mp:
        mp.setattr(shi, "_signature", lambda rs, m, point: (0,) * (2 * m + 1))
        systems.clear()
        answers.clear()
        assert [_choices(roots, held) for held, _ in shi._cells(rs, roots, m)] == choices
        assert Counter(systems) == asked + inherited
        assert answers.count(None) == empty
    shi._state_proofs.cache_clear()
    offered = []

    def refusing(dim, rows, lam):
        offered.append(lam)
        return False

    with monkeypatch.context() as mp:
        mp.setattr(shi, "check_farkas", refusing)
        systems.clear()
        answers.clear()
        assert [_choices(roots, held) for held, _ in shi._cells(rs, roots, m)] == choices
        assert Counter(systems) == asked + refuted
        assert answers.count(None) == empty + sum(refuted.values())
    assert len(offered) == STATE_CERTIFICATES["B3", m] == _proved(proofs)


@pytest.mark.parametrize("name", RANK_LE_3)
def test_cells_at_level_one_never_ask_kernel_about_an_empty_child(name, monkeypatch):
    # at m = 1 every empty child has a two-row certificate, so inside the
    # cell enumeration the kernel only ever finds cells: for the sign
    # oracle's walk of the whole arrangement (its table cleared, so that
    # the walk runs here) and the level-1 dominant regions
    rs = get_rs(name)
    cells, kernel = shi._cells, shi.feasible_rows
    inside, answers = [], []

    def enumerating(*args):
        inside.append(True)
        try:
            return cells(*args)
        finally:
            inside.pop()

    def recording(dim, rows):
        witness = kernel(dim, rows)
        if inside:
            answers.append(witness)
        return witness

    monkeypatch.setattr(shi, "_cells", enumerating)
    monkeypatch.setattr(shi, "feasible_rows", recording)
    shi._dominant_cells.cache_clear()
    for w in weyl_group(rs):
        dominant_sign_oracle(rs, complement_of_inversions(rs, w))
    fuss_dominant(rs, 1)
    assert answers and None not in answers


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


def _deletion_rows(rs, E, A, pinned):
    """Rows of a face of the antichain A in the dominant cone of the
    deletion to the roots E, written out from the root poset: x > 0,
    b . x = 1 for b in ``pinned``, below 1 on the rest of A's order ideal
    J cut to E, and above 1 on the rest of E."""
    n = rs.rank
    J = shi.root_poset(rs).ideal_generated(A)
    rows = [(tuple(int(i == j) for j in range(n)), 0, GT) for i in range(n)]
    for g in sorted(E):
        coords = rs.positive_roots[g]
        if g in pinned:
            rows.append((coords, 1, EQ))
        elif g in J:
            rows.append((tuple(-c for c in coords), -1, GT))
        else:
            rows.append((coords, 1, GT))
    return rows


@pytest.mark.parametrize("name", RANK_LE_3 + RANK_4)
def test_ceiling_oracle_matches_max_elements_everywhere(name):
    rs = get_rs(name)
    for w in _cone_sample(name):
        E = complement_of_inversions(rs, w)
        for region in regions_in_dominant(rs, E):
            oracle = ceiling_oracle(rs, E, region)
            assert oracle == region.ceiling
            assert oracle == _kernel_ceiling(rs, E, region)


@pytest.mark.parametrize("name", ["B3", "F4"])
def test_ceiling_oracle_calls_kernel_only_for_ceilings(
    name, monkeypatch, fresh_point_table
):
    # every non-facet is settled by a checked certificate and every facet
    # by a checked table point, so the oracle never runs the kernel; with
    # an empty table the kernel runs once per ceiling root, never on an
    # infeasible probe, and is asked the table's facet question with the
    # rows outside E dropped
    rs = get_rs(name)
    calls, systems = [], []

    def counting(dim, rows):
        witness = feasible_rows(dim, rows)
        calls.append(witness is not None)
        systems.append(rows)
        return witness

    antichain_points(rs)  # built before the kernel is counted
    for w in _cone_sample(name):
        E = complement_of_inversions(rs, w)
        regions = regions_in_dominant(rs, E)
        with monkeypatch.context() as m:
            m.setattr(shi, "feasible_rows", counting)
            calls.clear()
            for region in regions:
                assert ceiling_oracle(rs, E, region) == region.ceiling
            assert calls == []
            m.setattr(shi, "antichain_points", lambda rs: AntichainPoints({}, {}))
            for region in regions:
                calls.clear()
                systems.clear()
                ceiling_oracle(rs, E, region)
                assert len(calls) == len(region.ceiling) and all(calls)
                assert systems == [
                    _deletion_rows(rs, E, region.ceiling, {b})
                    for b in sorted(region.ceiling)
                ]


@pytest.mark.parametrize("name", ["B3", "F4"])
def test_refused_certificate_falls_back_to_kernel(name, monkeypatch, fresh_point_table):
    # each root of a region's ideal that is no facet is proved by a
    # comparable-pair certificate on rank + 2 rows, with no kernel call;
    # the certificates are checked once per type, one per pair of states
    # that _state_proofs proves at m = 1 (those of b on 1 against c below
    # 1, c - b >= 0, among them), and never again per region; with every
    # certificate refused the kernel settles each non-facet exactly once,
    # finds it infeasible, and the ceilings do not change
    rs = get_rs(name)
    certificates, calls = [], []

    def checking(dim, rows, lam):
        accepted = check_farkas(dim, rows, lam)
        certificates.append((len(rows), accepted))
        return accepted

    def counting(dim, rows):
        witness = feasible_rows(dim, rows)
        calls.append(witness)
        return witness

    antichain_points(rs)  # built before the kernel is counted
    cones = [complement_of_inversions(rs, w) for w in _cone_sample(name)]
    cones = [(E, regions_in_dominant(rs, E)) for E in cones]
    shi._state_proofs.cache_clear()  # the regions' floors built it
    with monkeypatch.context() as m:
        m.setattr(shi, "feasible_rows", counting)
        m.setattr(shi, "check_farkas", checking)
        for E, regions in cones:
            for region in regions:
                assert ceiling_oracle(rs, E, region) == region.ceiling
        assert calls == []
        assert certificates == [(rs.rank + 2, True)] * STATE_CERTIFICATES[name, 1]
    shi._state_proofs.cache_clear()
    with monkeypatch.context() as m:
        m.setattr(shi, "feasible_rows", counting)
        m.setattr(shi, "check_farkas", lambda dim, rows, lam: False)
        for E, regions in cones:
            for region in regions:
                calls.clear()
                assert ceiling_oracle(rs, E, region) == region.ceiling
                assert calls == [None] * len(region.ideal - region.ceiling)


def test_certificates_are_made_of_their_questions_rows(monkeypatch, fresh_point_table):
    # every certificate check_farkas is offered is made of rows of the
    # question it settles, walls included, each with that row's kind.
    # Each is offered once per (type, m), for one pair of states, whose
    # rows are written out here.  A ceiling probe, written out from the
    # root poset, is settled by the certificates of b on 1 against c below
    # 1, c != b, whose one EQ row is the pinned row of b, and by no others;
    # a child of a cell is emptied by the certificate of its interval and
    # one its cell holds, the child rebuilt from the choices of the cells
    # of each prefix; no certificate is offered per region or per child
    pair_refutes = shi._pair_refutes
    questions, offered = [], []

    def posing(n, walls, rows, extra):
        questions.append((tuple(rows), tuple(extra)))
        return pair_refutes(n, walls, rows, extra)

    def recording(dim, rows, lam):
        accepted = check_farkas(dim, rows, lam)
        offered.append((questions[-1], set(rows), accepted))
        return accepted

    monkeypatch.setattr(shi, "check_farkas", recording)
    monkeypatch.setattr(shi, "_pair_refutes", posing)
    for name, levels in (("B3", (1, 2, 3)), ("F4", (1,))):
        rs = get_rs(name)
        roots = range(len(rs.positive_roots))
        for m in levels:
            state = {
                tuple(_written_state(rs, g, m, s)): (g, s)
                for g in roots
                for s in range(2 * m + 1)
            }
            offered.clear()
            proofs = shi._state_proofs(rs, m)
            certificate = {}
            for (rows, extra), used, accepted in offered:
                assert accepted
                certificate[state[extra], state[rows]] = used
            assert len(offered) == len(certificate) == STATE_CERTIFICATES[name, m]
            if m == 1:
                ceiling = {
                    (b, c): used
                    for ((b, sb), (c, sc)), used in certificate.items()
                    if (sb, sc) == (shi._ON, shi._BELOW) and b != c
                }
                assert set(ceiling) == {
                    (b, c)
                    for b in roots
                    for c in roots
                    if c != b and proofs[b][shi._ON][shi._BELOW] >> c & 1
                }
                for (b, _), used in ceiling.items():
                    pinned = [row for row in used if row[2] == EQ]
                    assert pinned == [(rs.positive_roots[b], 1, EQ)]
                for w in _cone_sample(name):
                    E = complement_of_inversions(rs, w)
                    for region in regions_in_dominant(rs, E):
                        offered.clear()
                        ceiling_oracle(rs, E, region)
                        assert offered == []
                        settled = set()
                        for b, c in ceiling:
                            if b in region.ideal and c in region.ideal:
                                probe = set(_deletion_rows(rs, E, region.ceiling, {b}))
                                assert ceiling[b, c] <= probe
                                settled.add(b)
                        assert settled == region.ideal - region.ceiling
            if name == "B3":
                emptied = 0
                for k, choices, _, j, rows in _children(rs, roots, m):
                    i = roots[k]
                    held = zip(roots, choices)
                    pairs = [(g, jg) for g, jg in held if proofs[i][j][jg] >> g & 1]
                    for pair in pairs:
                        assert certificate[(i, j), pair] <= set(rows)
                    emptied += bool(pairs)
                assert emptied
                offered.clear()
                shi._cells(rs, roots, m)
                assert offered == []


# -- cone subposets ----------------------------------------------------------------


@pytest.mark.parametrize("name", RANK_LE_3 + RANK_4)
def test_antichain_table_filtered_to_a_deletion_is_its_poset_walk(name):
    # every cone's subposet, and the two deletions the construction digest
    # pins, lists the table's rows inside its roots, in the table's order,
    # with each ideal the root-poset ideal cut to its roots
    rs = get_rs(name)
    rp = root_poset(rs)
    table = antichain_table(rs)
    assert [(A, a) for A, a, _ in table] == [(A, shi._mask(A)) for A in rp.antichains()]
    deletions = [complement_of_inversions(rs, w) for w in weyl_group(rs)]
    deletions += {"B3": [(0, 2, 3, 5, 6, 8)], "F4": [range(0, 24, 2)]}.get(name, [])
    for E in deletions:
        sub = rp.restrict(E)
        rows = shi._antichains_within(rs, shi._mask(E))
        assert [(A, J) for A, _, J in rows] == [
            (A, shi._mask(J)) for A, J in zip(sub.antichains(), sub.order_ideals())
        ]


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
    dominant = regions_in_dominant(rs_b2, range(4))
    region = next(r for r in dominant if a1 in r.ideal)
    with pytest.raises(RuntimeError, match="invariant violated"):
        transport_regions(rs_b2, s, [region])


# -- flats ------------------------------------------------------------------------------


def test_b2_identity_flats(rs_b2):
    e = element_from_word(rs_b2, ())
    poset = flats_in_cone(rs_b2, complement_of_inversions(rs_b2, e), e)
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
    poset = flats_in_cone(rs_b2, complement_of_inversions(rs_b2, st), st)
    gens = {frozenset(roots_of(rs_b2, f.generators)) for f in poset.flats}
    assert gens == {frozenset(), frozenset({(0, 1)}), frozenset({(1, 1)})}


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
        a = flats_in_cone(rs, complement_of_inversions(rs, w), w)
        b = flats_oracle(rs, w)
        key = lambda p: {
            f.geometry.rref: (f.generators, f.mobius) for f in p.flats
        }
        assert key(a) == key(b)


def test_flats_oracle_rank_bound():
    # the oracle keeps no cap of its own: above rank 4 the kernel refuses
    for name in ("A5", "A16"):
        rs = get_rs(name)
        bound = f"dimension {rs.rank} exceeds the supported bound {exactgeom.MAX_DIM}"
        with pytest.raises(ValueError, match=bound):
            flats_oracle(rs, element_from_word(rs, ()))


def test_intersection_poset_structure(rs_b2):
    e = element_from_word(rs_b2, ())
    poset = flats_in_cone(rs_b2, complement_of_inversions(rs_b2, e), e)
    # reverse inclusion: the ambient space is the unique minimum
    assert all(poset.leq(0, j) for j in range(len(poset)))
    for j, f in enumerate(poset.flats):
        below = sum(poset.leq(i, j) for i in range(len(poset)))
        assert below == 2 ** f.geometry.codim
        assert poset.interval_mobius(0, j) == f.mobius


def test_interval_mobius_vanishes_off_the_order(rs_b2):
    e = element_from_word(rs_b2, ())
    poset = flats_in_cone(rs_b2, complement_of_inversions(rs_b2, e), e)
    n = len(poset)
    pairs = [(i, j) for i in range(n) for j in range(n) if not poset.leq(i, j)]
    assert pairs
    assert all(poset.interval_mobius(i, j) == 0 for i, j in pairs)


def _level_planes(rs, levels):
    return {(i, k): (c, k) for i, c in enumerate(rs.positive_roots) for k in levels}


def _hall_mobius_rows(poset):
    """Philip Hall's theorem: mu(i, j) is the sum over k of (-1)^k c_k,
    where c_k counts the chains i = x0 < ... < xk = j.  The chains are
    counted from ``leq`` alone, growing them upward through the elements
    taken by the size of their down-sets, a linear extension."""
    m = len(poset)
    below = {y: [x for x in range(m) if x != y and poset.leq(x, y)] for y in range(m)}
    order = sorted(range(m), key=lambda y: len(below[y]))
    rows = []
    for i in range(m):
        chains = {i: [1]}  # chains[x][k] = c_k for the chains from i to x
        for y in order:
            steps = [chains[x] for x in below[y] if x in chains]
            if steps:
                c = [0] * (1 + max(map(len, steps)))
                for step in steps:
                    for k, count in enumerate(step):
                        c[k + 1] += count
                chains[y] = c
        rows.append(
            [sum((-1) ** k * c for k, c in enumerate(chains.get(j, []))) for j in range(m)]
        )
    return rows


def _hall_posets():
    """Whole level-0/1 arrangements, level 1..m dominant closures, whose
    intervals need not be Boolean, and the cone posets of B3."""
    for name in ("A2", "B2", "G2"):
        rs = get_rs(name)
        yield shi._closure_poset(rs, _level_planes(rs, (0, 1)))
    for name in ("A2", "B2"):
        rs = get_rs(name)
        for m in (2, 3):
            yield shi._closure_poset(
                rs,
                _level_planes(rs, range(1, m + 1)),
                inside_rows=shi._positivity_rows(rs.rank),
            )
    rs = get_rs("B3")
    for w in weyl_group(rs):
        yield flats_in_cone(rs, complement_of_inversions(rs, w), w)


def test_interval_mobius_is_halls_alternating_chain_count():
    largest = 0
    for poset in _hall_posets():
        m = len(poset)
        got = [[poset.interval_mobius(i, j) for j in range(m)] for i in range(m)]
        assert got == _hall_mobius_rows(poset)
        largest = max(largest, *map(abs, (v for row in got for v in row)))
    # some interval is not Boolean, where |mu| is not 1
    assert largest >= 2


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
    monkeypatch.setattr(exactgeom, "flat_contains", None)
    monkeypatch.setattr(shi, "intersect_hyperplanes", None)
    poset = shi._closure_poset(rs, planes, inside_rows=inside)
    order = list(planes)
    expected = sum(
        len(order) - _insertion_step(rs.rank, planes, f) for f in poset.flats
    )
    assert len(calls) == expected


# sha256 of repr() of the oracle outputs below without their witnesses:
# any change to a flat, its generators or Mobius value, a cell's choices
# or a below-set changes it.
ORACLE_DIGEST = "6b7b8b647b51ff71a9859402e4b40441fa6f0ffaae01acd53c507a7f13613331"
# sha256 of repr() of the witnesses of those cells, in the same order.
ORACLE_WITNESS_DIGEST = "e9dbe036d78df4cc6376f21f655a181ef857ccd2534f3bf48ae1b673d288f0eb"


def _flats(poset):
    return [
        (f.geometry.rref, sorted(f.generators), f.geometry.codim, f.mobius)
        for f in poset.flats
    ]


def _cell_rows(rs, roots, m, choices):
    """The rows of the cell in which root roots[k] lies in (j, j + 1),
    or above m for j = m, where j = choices[k]; and x > 0."""
    rows = [(tuple(int(i == k) for i in range(rs.rank)), 0, GT) for k in range(rs.rank)]
    for g, j in zip(roots, choices):
        coords = rs.positive_roots[g]
        rows += [(coords, j, GT)] if j > 0 else []
        rows += [(tuple(-c for c in coords), -j - 1, GT)] if j < m else []
    return rows


def _choices(roots, held):
    """The interval ``choices[k]`` of each root ``roots[k]`` in the cell
    question ``held``, as :func:`_cell_rows` reads them: asserts that each
    root lies in exactly one mask and that no other root is held."""
    choices = []
    for g in roots:
        states = [j for j, h in enumerate(held) if h >> g & 1]
        assert len(states) == 1, (g, held)
        choices += states
    assert not any(h & ~shi._mask(roots) for h in held), (roots, held)
    return tuple(choices)


def _held(roots, choices, m):
    """The question of a cell: ``held[j]``, the bitmask of the roots
    ``roots[k]`` with ``choices[k] == j``, for each interval j <= m."""
    held = [0] * (m + 1)
    for g, j in zip(roots, choices):
        held[j] |= 1 << g
    return tuple(held)


def _refuted(proofs, i, j, held):
    """Whether ``proofs`` refutes root i in state j against a state of
    the question ``held``."""
    return any(p & h for p, h in zip(proofs[i][j], held))


def _proved(proofs):
    """The number of (root, state) pairs that ``proofs`` refutes, each
    counted from both of its sides."""
    return sum(
        bin(mask).count("1") for per_root in proofs for row in per_root for mask in row
    )


def _written_state(rs, g, m, s):
    """The rows that put root g in state s at level m, written out: the
    interval's rows from :func:`_cell_rows` for s <= m, else
    ``coords . x = s - m``."""
    if s <= m:
        return _cell_rows(rs, [g], m, [s])[rs.rank :]
    return [(rs.positive_roots[g], s - m, EQ)]


#: certificates check_farkas accepts in building _state_proofs(rs, m):
#: one per proved pair, 3 m (m + 1) / 2 per pair of roots b <= c
STATE_CERTIFICATES = {
    ("B3", 1): 108,
    ("B3", 2): 324,
    ("B3", 3): 648,
    ("G2", 2): 180,
    ("G2", 3): 360,
    ("F4", 1): 735,
}


def _children(rs, roots, m):
    """Every child question of the cell enumeration over ``roots``, as
    ``(k, choices, point, j, rows)``: a cell of the prefix ``roots[:k]``
    with its point, and root ``roots[k]`` in interval j, the child's rows
    written out by :func:`_cell_rows` from the cell's :func:`_choices`."""
    for k in range(len(roots)):
        for held, point in shi._cells(rs, roots[:k], m):
            choices = _choices(roots[:k], held)
            for j in range(m + 1):
                yield k, choices, point, j, _cell_rows(rs, roots[: k + 1], m, choices + (j,))


def _oracle_outputs():
    """The flats and cells of the oracles, each cell by its
    :func:`_choices`, and each cell's witness with the rows of its cell
    rebuilt from its choices or below-set."""
    data, witnessed = [], []
    for name in ("G2", "B3"):
        rs = get_rs(name)
        roots = range(len(rs.positive_roots))
        data.append(_flats(shi._closure_poset(rs, _level_planes(rs, (0, 1)))))
        for m in (1, 2, 3):
            planes = _level_planes(rs, range(1, m + 1))
            inside = shi._positivity_rows(rs.rank)
            data.append(_flats(shi._closure_poset(rs, planes, inside_rows=inside)))
            cells = [
                (_choices(roots, held), witness) for held, witness in shi._cells(rs, roots, m)
            ]
            data.append([choices for choices, _ in cells])
            witnessed += [
                (rs, _cell_rows(rs, roots, m, choices), witness)
                for choices, witness in cells
            ]
    rs = get_rs("B3")
    for w in weyl_group(rs):
        data.append(_flats(flats_oracle(rs, w)))
        E = complement_of_inversions(rs, w)
        oracle = dominant_sign_oracle(rs, E)
        data.append([sorted(below) for below in oracle])
        witnessed += [
            (rs, _cell_rows(rs, E, 1, [int(g not in below) for g in E]), witness)
            for below, witness in oracle.items()
        ]
    return data, witnessed


def test_oracle_outputs_pinned():
    data, witnessed = _oracle_outputs()
    assert hashlib.sha256(repr(data).encode()).hexdigest() == ORACLE_DIGEST
    witnesses = [witness for _, _, witness in witnessed]
    assert hashlib.sha256(repr(witnesses).encode()).hexdigest() == ORACLE_WITNESS_DIGEST
    for rs, rows, witness in witnessed:
        assert check_witness(rs.rank, rows, witness)


# sha256 of repr() of the construction outputs below without the region
# witnesses: any change to a region's ideal or ceiling, or to a flat's
# rref, generators, codim or Mobius value changes it.
CONSTRUCTION_DIGEST = "01cb795a7042fdbcdfb9b84308da962a45a643f162a7edf40878fe5b88d1b6fd"
# sha256 of repr() of the witnesses of those regions, in the same order.
CONSTRUCTION_WITNESS_DIGEST = "b8673c170fdf7da4fc5abc2299b558b44273f1e58f6bc832e25331703fedbe36"


def test_construction_outputs_pinned():
    rng = random.Random(17)
    cones = [(get_rs("B3"), w) for w in weyl_group(get_rs("B3"))]
    for name in RANK_4:
        rs = get_rs(name)
        cones += [(rs, w) for w in rng.sample(weyl_group(rs), 8)]
    data, witnesses, witnessed = [], [], []

    def pin(rs, E, dominant, found):
        """Pins the regions ``found``, and checks the witnesses of the same
        regions in C, ``dominant``, on their full :func:`region_rows`."""
        data.append([(sorted(r.ideal), sorted(r.ceiling)) for r in found])
        witnesses.extend(r.witness for r in found)
        witnessed.extend((rs, region_rows(rs, E, r.ideal), r.witness) for r in dominant)

    for rs, w in cones:
        E = complement_of_inversions(rs, w)
        dominant = regions_in_dominant(rs, E)
        found = regions_in_cone(rs, w)
        assert found == transport_regions(rs, w, dominant)
        pin(rs, E, dominant, found)
        data.append(_flats(flats_in_cone(rs, E, w)))
    for name, E in (("B3", (0, 2, 3, 5, 6, 8)), ("F4", range(0, 24, 2))):
        rs = get_rs(name)
        found = regions_in_dominant(rs, E)
        pin(rs, E, found, found)
        data.append(_flats(flats_in_cone(rs, E, element_from_word(rs, ()))))
    assert sum(map(len, data)) == 1900
    assert hashlib.sha256(repr(data).encode()).hexdigest() == CONSTRUCTION_DIGEST
    assert hashlib.sha256(repr(witnesses).encode()).hexdigest() == CONSTRUCTION_WITNESS_DIGEST
    for rs, rows, witness in witnessed:
        assert check_witness(rs.rank, rows, witness)


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
    point negated, which puts it outside the dominant cone, where the flat
    builder checks it, and a kernel that finds no point."""
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
            lambda rs: regions_in_dominant(rs, range(4)),
            "empty region",
        ),
        # the last hyperplane of an antichain adds nothing to the others
        (
            lambda rs: {
                "intersect_hyperplanes": lambda dim, rows: intersect_hyperplanes(
                    dim, list(rows)[:-1]
                )
            },
            lambda rs: flats_in_cone(rs, range(4), element_from_word(rs, ())),
            "hyperplanes are dependent",
        ),
        # neither the table's point, pushed out of the cone, nor the
        # kernel shows a point of a flat inside its cone
        (
            _off_cone_and_no_kernel,
            lambda rs: flats_in_cone(rs, range(4), element_from_word(rs, ())),
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


@pytest.mark.parametrize("name", ["B2", "F4"])
def test_wrong_floor_table_fails_region_construction(name, monkeypatch):
    # with every root claiming to lie above every root (the ON/BELOW column
    # of the certified pair table holding every root), the floor of every
    # region with a root above its ideal comes out empty; the kernel's point
    # then misses some row of E - J, and the check on the region's whole
    # question must refuse it rather than return the region
    rs = get_rs(name)
    everything = (1 << len(rs.positive_roots)) - 1
    wrong = [list(map(list, per_root)) for per_root in shi._state_proofs(rs, 1)]
    for per_root in wrong:
        per_root[shi._ON][shi._BELOW] = everything
    monkeypatch.setattr(shi, "_state_proofs", lambda rs, m: wrong)
    with pytest.raises(AssertionError, match="floor table"):
        regions_in_dominant(rs, range(len(rs.positive_roots)))


@pytest.mark.parametrize("name", RANK_4 + ["B3"])
def test_region_systems_are_walls_ceiling_and_floor(name, monkeypatch):
    # regions_in_dominant asks the kernel once per region, on the walls of
    # C, a . x < 1 for each root a of the ceiling and f . x > 1 for each
    # root f of the floor, the minimal roots of E - J, in root index order:
    # every cone of A4, B4, C4 and D4, the F4 sample, and the B3 and F4
    # deletions of the construction pin; the floor is read here from the
    # root poset's order, not from the table regions_in_dominant reads
    rs = get_rs(name)
    rp = root_poset(rs)
    roots = range(len(rs.positive_roots))
    below = [frozenset(g for g in roots if g != f and rp.leq(g, f)) for f in roots]
    if name == "B3":
        deletions = [(0, 2, 3, 5, 6, 8)]
    elif name == "F4":
        deletions = [complement_of_inversions(rs, w) for w in _cone_sample(name)]
        deletions.append(range(0, 24, 2))
    else:
        deletions = [complement_of_inversions(rs, w) for w in weyl_group(rs)]
    systems = []
    kernel = shi.feasible_rows

    def recording(dim, rows):
        systems.append(rows)
        return kernel(dim, rows)

    monkeypatch.setattr(shi, "feasible_rows", recording)
    for E in deletions:
        systems.clear()
        expected = []
        for region in regions_in_dominant(rs, E):
            rest = frozenset(E) - region.ideal
            floor = {f for f in rest if not below[f] & rest}
            expected.append(_deletion_rows(rs, region.ceiling | floor, region.ceiling, ()))
        assert systems == expected


def test_flat_on_outside_hyperplane_fails_construction(rs_b2, monkeypatch):
    # the face point of the two simple roots lies on each simple root's
    # flat and inside the dominant cone, but also on the other simple
    # root's hyperplane, so it proves neither singleton flat: the builder
    # asks the kernel for each, and fails when the kernel finds no point
    # off the other hyperplanes
    e = element_from_word(rs_b2, ())
    E = complement_of_inversions(rs_b2, e)
    expected = _flats(flats_in_cone(rs_b2, E, e))
    idx = root_index(rs_b2)
    a, b = idx[(1, 0)], idx[(0, 1)]
    table = antichain_points(rs_b2)
    face = dict(table.face)
    face[frozenset({a})] = face[frozenset({b})] = table.face[frozenset({a, b})]
    monkeypatch.setattr(shi, "antichain_points", lambda rs: AntichainPoints(face, table.facet))
    calls = []

    def counting(dim, rows):
        calls.append(dim)
        return feasible_rows(dim, rows)

    monkeypatch.setattr(shi, "feasible_rows", counting)
    assert _flats(flats_in_cone(rs_b2, E, e)) == expected
    assert len(calls) == 2
    monkeypatch.setattr(shi, "feasible_rows", lambda dim, rows: None)
    with pytest.raises(RuntimeError, match="does not meet its cone"):
        flats_in_cone(rs_b2, E, e)


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
    """Rows of a table point of the antichain A: its face rows in the
    deletion to all of Phi+."""
    return _deletion_rows(rs, range(len(rs.positive_roots)), A, pinned)


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


# sha256 of repr() of every type's point table: any change to a system
# the table poses to the kernel changes its point, and so the digest.
POINT_TABLE_DIGEST = "30a4f356bfdd66f2abdd043a4cc9fe5fb5c9766d93733fd4f8e08e4503aed791"


def test_point_table_pinned(fresh_point_table):
    # each table is built here, by the kernel, not read from the cache
    data = []
    for name in RANK_LE_3 + RANK_4:
        table = antichain_points(get_rs(name))
        data.append(
            (
                name,
                sorted((sorted(A), p) for A, p in table.face.items()),
                sorted((sorted(A), b, p) for (A, b), p in table.facet.items()),
            )
        )
    assert hashlib.sha256(repr(data).encode()).hexdigest() == POINT_TABLE_DIGEST


def _face_questions(rs, deletions):
    """Every face question ``(E, ideal, pinned)`` of the given deletions,
    as bitmasks: each antichain A of the deletion poset with its order
    ideal, pinning A or a single root of A."""
    questions = set()
    for E in deletions:
        sub = shi.root_poset(rs).restrict(E)
        for A, J in zip(sub.antichains(), sub.order_ideals()):
            for pinned in [A, *({b} for b in A)]:
                questions.add((shi._mask(E), shi._mask(J), shi._mask(pinned)))
    return sorted(questions)


def _intervals_near(rs, point, prefix, m, memo):
    """Every choice of intervals for the roots of ``prefix`` that the
    point's exact values, read as Fractions, sit in or next to: both
    neighbours of a value that is exactly k in 1..m, interval 0 for a
    value <= 0 and interval m above m.  A point's options for every root
    are worked out once and kept in ``memo``, one memo per m."""
    if point not in memo:
        nums, den = point
        memo[point] = options = []
        for coords in rs.positive_roots:
            value = Fraction(sum(c * x for c, x in zip(coords, nums)), den)
            if value <= 0:
                options.append([0])
            elif value > m:
                options.append([m])
            elif value.denominator == 1:
                options.append([int(value) - 1, int(value)])
            else:
                options.append([int(value)])
    options = memo[point]
    return set(itertools.product(*(options[g] for g in prefix)))


def _off_cone(point):
    """The point with its first, then its last, coordinate negated, both
    outside C.  The roots that are 0 in the negated coordinate keep their
    values, so only the walls tell such a point from the original; which
    roots those are depends on the type and the root order, hence both."""
    nums, den = point
    return [((-nums[0], *nums[1:]), den), ((*nums[:-1], -nums[-1]), den)]


class _RowChecks(dict):
    """``check_witness(rank, [row], point)`` of one point, per row,
    computed on first use."""

    def __init__(self, rank, point):
        super().__init__()
        self.rank = rank
        self.point = point

    def __missing__(self, row):
        self[row] = ok = check_witness(self.rank, [row], self.point)
        return ok


def _check_rows(rank, rows, point, memo):
    """``check_witness(rank, rows, point)`` as its definition's
    conjunction: the point's own check ``check_witness(rank, [], point)``
    and each row's ``check_witness(rank, [row], point)``, the latter
    memoized per (row, point) in ``memo``."""
    if point not in memo:
        memo[point] = _RowChecks(rank, point)
    return check_witness(rank, [], point) and all(map(memo[point].__getitem__, rows))


def _exact_on(rs, point, g, m):
    """For each k in 1..m the point scaled, inside C, so that root g
    takes the value k exactly."""
    nums, den = point
    value = sum(c * x for c, x in zip(rs.positive_roots[g], nums))
    return [(tuple(k * x for x in nums), value) for k in range(1, m + 1)]


def _face_written(rs, E, ideal, pinned):
    """The rows of the face question ``(E, ideal, pinned)``, written out:
    the walls, then for each root of E in index order its row at m = 1,
    on 1 when pinned, below 1 in the rest of the ideal, else above 1."""
    rows = _cell_rows(rs, [], 1, [])
    for g, coords in enumerate(rs.positive_roots):
        if not E >> g & 1:
            continue
        if pinned >> g & 1:
            rows.append((coords, 1, EQ))
        elif ideal >> g & 1:
            rows.append((tuple(-c for c in coords), -1, GT))
        else:
            rows.append((coords, 1, GT))
    return rows


@pytest.mark.parametrize("name", RANK_LE_3 + RANK_4)
def test_state_rows_are_the_written_states(name):
    # the rows of each (root, state) pair at m = 1, 2, 3 are those written
    # out here; a face question's rows are the walls, then for each root
    # of E in index order its row at m = 1: on 1 when pinned, below 1 in
    # the rest of the ideal, else above 1; and at m = 2, 3 the rows of a
    # question holding random roots in random intervals are the walls,
    # then each held root's interval rows in index order
    rs = get_rs(name)
    N = len(rs.positive_roots)
    for m in (1, 2, 3):
        assert shi._state_rows(rs, m) == tuple(
            tuple(tuple(_written_state(rs, g, m, s)) for s in range(2 * m + 1))
            for g in range(N)
        )
    rng = random.Random(name)
    for _ in range(40):
        E, ideal, pinned = (rng.getrandbits(N) for _ in range(3))
        rest = E & ~pinned
        held = (rest & ideal, rest & ~ideal, E & pinned)
        assert shi._question_rows(rs, 1, held) == _face_written(rs, E, ideal, pinned)
    for m in (2, 3):
        for _ in range(40):
            state = [rng.choice([None, *range(m + 1)]) for _ in range(N)]
            held = [0] * (m + 1)
            rows = _cell_rows(rs, [], m, [])
            for g, coords in enumerate(rs.positive_roots):
                s = state[g]
                if s is None:
                    continue
                held[s] |= 1 << g
                rows += [(coords, s, GT)] if s > 0 else []
                rows += [(tuple(-c for c in coords), -s - 1, GT)] if s < m else []
            assert shi._question_rows(rs, m, tuple(held)) == rows


@pytest.mark.parametrize("m", [1, 2, 3])
def test_signature_reads_each_roots_state(m):
    # the signature puts each root in the state of its value, read as a
    # Fraction: its level when the value is exactly 1..m, else the
    # interval holding it; and it is None for a point outside C (a
    # coordinate <= 0), of the wrong length or with den <= 0
    for name in ("B3", "G2", "F4"):
        rs = get_rs(name)
        rng = random.Random(f"{name}-{m}")
        for _ in range(200):
            den = rng.randint(1, 6)
            nums = tuple(rng.randint(1, 4 * den) for _ in range(rs.rank))
            expected = [0] * (2 * m + 1)
            for g, coords in enumerate(rs.positive_roots):
                value = Fraction(sum(c * x for c, x in zip(coords, nums)), den)
                exact = value.denominator == 1 and value <= m
                expected[m + int(value) if exact else min(int(value), m)] |= 1 << g
            assert shi._signature(rs, m, (nums, den)) == tuple(expected)
            outside = [
                ((0, *nums[1:]), den),
                ((*nums[:-1], -nums[-1]), den),
                (nums[:-1], den),
                (nums, 0),
                (nums, -den),
            ]
            assert all(shi._signature(rs, m, point) is None for point in outside)


@pytest.mark.parametrize("name", RANK_LE_3)
def test_level_vectors_answer_cell_questions_as_check_witness(name):
    # a point answers a cell question, _holds on its signature at level m
    # (the point's level vector), exactly when check_witness accepts it on
    # the child's rows written out by _cell_rows, for m = 1, 2, 3 and
    # every prefix: on the point of each cell, of the next cell and of the
    # cell's nonempty children, each also moved out of C (first or last
    # coordinate negated), and the cell's point made exactly k <= m on the
    # new root; over every child j of the cell and of the next cell, and
    # the children the point sits in or next to
    rs = get_rs(name)
    roots = range(len(rs.positive_roots))
    answers = set()
    memo = {}
    for m in (1, 2, 3):
        near = {}
        by_prefix = [
            [(_choices(roots[:k], held), point) for held, point in shi._cells(rs, roots[:k], m)]
            for k in range(len(roots) + 1)
        ]
        for k, cells in enumerate(by_prefix[:-1]):
            prefix = roots[: k + 1]
            grown = dict(by_prefix[k + 1])
            question_of = {}
            for c, (choices, point) in enumerate(cells):
                after, next_point = cells[(c + 1) % len(cells)]
                children = {cell + (j,) for cell in (choices, after) for j in range(m + 1)}
                points = [point, next_point]
                points += [grown[child] for child in children if child in grown]
                points += [q for p in points for q in _off_cone(p)]
                for p in points + _exact_on(rs, point, roots[k], m):
                    signature = shi._signature(rs, m, p)
                    for child in children | _intervals_near(rs, p, prefix, m, near):
                        if child not in question_of:
                            question_of[child] = (
                                _held(prefix, child, m),
                                _cell_rows(rs, prefix, m, child),
                            )
                        held, rows = question_of[child]
                        answer = shi._holds(signature, held)
                        assert answer == _check_rows(rs.rank, rows, p, memo), (m, child, p)
                        answers.add(answer)
    assert answers == {True, False}


@pytest.mark.parametrize("name", RANK_LE_3 + RANK_4)
def test_sign_vectors_answer_face_questions_as_check_witness(name, monkeypatch):
    # a point answers a face question, _holds on its signature at m = 1,
    # exactly when check_witness accepts it on the question's rows.  The
    # questions are asked through _face with the kernel refused (and the
    # rows it would be asked left unbuilt), so that the question _face
    # builds is tested too: every table point and each point moved out of
    # C, over every deletion of a rank <= 3 type and a seeded sample of
    # questions at rank 4
    rs = get_rs(name)
    N = len(rs.positive_roots)
    if name in RANK_LE_3:
        questions = _face_questions(
            rs, [[g for g in range(N) if E >> g & 1] for E in range(1 << N)]
        )
    else:
        rng = random.Random(name)
        deletions = [sorted(rng.sample(range(N), rng.randint(0, N))) for _ in range(8)]
        questions = rng.sample(_face_questions(rs, deletions), 120)
    table = antichain_points(rs)
    points = [*table.face.values(), *table.facet.values()]
    points += [q for p in points for q in _off_cone(p)]
    rows_of = {question: _face_written(rs, *question) for question in questions}
    monkeypatch.setattr(shi, "_question_rows", lambda *question: None)
    monkeypatch.setattr(shi, "feasible_rows", lambda dim, rows: None)
    answers = set()
    memo = {}
    for E, ideal, pinned in questions:
        rows = rows_of[E, ideal, pinned]
        for point in points:
            answer = shi._face(rs, E, ideal, pinned, point) is not None
            assert answer == _check_rows(rs.rank, rows, point, memo), (E, ideal, pinned, point)
            answers.add(answer)
    assert answers == {True, False}


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("name", ["B3", "G2"])
def test_fuss_cells_ask_kernel_only_about_unsettled_children(
    name, m, monkeypatch, fresh_point_table
):
    # the claim of test_sign_oracle_extends_only_feasible_prefixes at
    # m >= 2: inside the cell enumeration of fuss_dominant the first
    # kernel system is the bare cone, and every later one is a child whose
    # parent's point is outside its rows and that no state proof refutes
    # against its cell; only these children can be empty.  The proofs
    # rest on their per-(type, m) certificates, each accepted once
    rs = get_rs(name)
    roots = range(len(rs.positive_roots))
    verdicts = []

    def checking(dim, rows, lam):
        verdicts.append(check_farkas(dim, rows, lam))
        return verdicts[-1]

    with monkeypatch.context() as mp:
        mp.setattr(shi, "check_farkas", checking)
        proofs = shi._state_proofs(rs, m)
    assert verdicts == [True] * STATE_CERTIFICATES[name, m]
    children = {
        tuple(rows): (point, roots[k], j, _held(roots, choices, m))
        for k, choices, point, j, rows in _children(rs, roots, m)
    }
    cells, kernel = shi._cells, shi.feasible_rows
    inside, systems, answers = [], [], []

    def enumerating(*args):
        inside.append(True)
        try:
            return cells(*args)
        finally:
            inside.pop()

    def recording(dim, rows):
        witness = kernel(dim, rows)
        if inside:
            systems.append(tuple(rows))
            answers.append(witness)
        return witness

    monkeypatch.setattr(shi, "_cells", enumerating)
    monkeypatch.setattr(shi, "feasible_rows", recording)
    fuss_dominant(rs, m)
    assert systems[0] == tuple(_cell_rows(rs, [], m, []))
    assert len(systems) > 1 and None in answers
    for rows in systems[1:]:
        point, i, j, held = children[rows]
        assert not check_witness(rs.rank, rows, point)
        assert not _refuted(proofs, i, j, held)


def _check_state_proofs(rs, m, monkeypatch):
    """Assert that proofs[g][s][t] = _state_proofs(rs, m)[g][s][t] holds
    exactly the roots c such that the rows of root g in state s and of
    root c in state t, written out, have a row pair (a, s'), (c', t') with
    a + c' <= 0 and s' + t' >= 0 whose certificate (the walls times
    -(a + c'), then 1, 1) check_farkas accepts, searched over all row
    pairs, every state s of g, exact states included, and every interval
    t <= m of c, the states the table's readers hold c in.  These are the
    comparable pairs: g <= c coordinatewise and a lower bound of g's state
    (interval l or level l) at least the upper bound of c's (interval
    u - 1 < m), or the same with g and c swapped.  check_farkas accepted
    one certificate per proved pair, 3 m (m + 1) / 2 per pair of roots
    b <= c, and no interval refutes itself.  Returns the proofs."""
    n, roots = rs.rank, rs.positive_roots
    N = len(roots)
    walls = _cell_rows(rs, [], 1, [])
    verdicts = []

    def recording(dim, rows, lam):
        accepted = check_farkas(dim, rows, lam)
        verdicts.append(accepted)
        return accepted

    def refutes(rows, other):
        return any(
            s + t >= 0
            and all(x + y <= 0 for x, y in zip(a, c))
            and check_farkas(
                n,
                [*walls, (c, t, k), (a, s, kind)],
                [-(x + y) for x, y in zip(a, c)] + [1, 1],
            )
            for a, s, kind in rows
            for c, t, k in other
        )

    ordered_pairs = sum(_below(b, c) for b in roots for c in roots)
    with monkeypatch.context() as mp:
        mp.setattr(shi, "check_farkas", recording)
        proofs = shi._state_proofs(rs, m)
    states, intervals = range(2 * m + 1), range(m + 1)
    rows = {(g, s): _written_state(rs, g, m, s) for g in range(N) for s in states}
    low = [s if s <= m else s - m for s in states]
    up = [s + 1 if s < m else float("inf") for s in states]
    searched = tuple(
        tuple(
            tuple(
                sum(1 << c for c in range(N) if refutes(rows[g, s], rows[c, t]))
                for t in intervals
            )
            for s in states
        )
        for g in range(N)
    )
    ordered = tuple(
        tuple(
            tuple(
                sum(
                    1 << c
                    for c in range(N)
                    if _below(roots[g], roots[c]) and low[s] >= up[t]
                    or _below(roots[c], roots[g]) and low[t] >= up[s]
                )
                for t in intervals
            )
            for s in states
        )
        for g in range(N)
    )
    assert proofs == searched == ordered
    assert verdicts == [True] * _proved(proofs)
    assert _proved(proofs) == 3 * m * (m + 1) // 2 * ordered_pairs
    assert not any(proofs[g][s][s] >> g & 1 for g in range(N) for s in intervals)
    return proofs


def _below(b, c):
    """Whether c - b >= 0, read from coordinate vectors."""
    return all(x <= y for x, y in zip(b, c))


@pytest.mark.parametrize("name", RANK_LE_3 + RANK_4)
def test_pair_proofs_are_the_comparable_pairs(name, monkeypatch, fresh_point_table):
    # the state proofs at m = 1 are the comparable pairs, as
    # _check_state_proofs states them, and the column of b on 1 against
    # c below 1, which settles ceilings, is {c : c - b >= 0}
    rs = get_rs(name)
    roots = rs.positive_roots
    proofs = _check_state_proofs(rs, 1, monkeypatch)
    above = tuple(sum(1 << c for c, r in enumerate(roots) if _below(b, r)) for b in roots)
    assert tuple(proofs[b][shi._ON][shi._BELOW] for b in range(len(roots))) == above


@pytest.mark.parametrize("name", RANK_LE_3)
def test_interval_proofs_are_the_refutable_interval_pairs(
    name, monkeypatch, fresh_point_table
):
    # the state proofs at m = 2, 3, which settle children of Fuss cells,
    # are the refutable pairs of states, intervals and exact levels, as
    # _check_state_proofs states them (m = 1 is checked with the
    # comparable pairs)
    rs = get_rs(name)
    for m in (2, 3):
        _check_state_proofs(rs, m, monkeypatch)


@pytest.mark.parametrize("name", RANK_LE_3 + RANK_4)
def test_moved_face_points_lie_on_flats_in_cone(name, monkeypatch, fresh_point_table):
    # the transport argument the flat builder relies on, which proves each
    # flat in C: the face point of each antichain, moved by w, lies on the
    # flat the construction builds for it and inside wC; the posets built
    # from the table equal those built by the kernel alone
    rs = get_rs(name)
    faces = antichain_points(rs).face
    cones = _cone_sample(name)
    built = [flats_in_cone(rs, complement_of_inversions(rs, w), w) for w in cones]
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
        _flats(flats_in_cone(rs, complement_of_inversions(rs, w), w)) for w in cones
    ]


@pytest.mark.parametrize("name", ["B3", *RANK_4])
def test_cone_flats_are_proved_in_dominant_cone(name, monkeypatch, fresh_point_table):
    # each flat of wC is proved in C, on the face rows of its antichain in
    # the deletion to the cone's roots, so no point is moved: with
    # act_point refused the flats do not change, and with an empty table
    # the kernel is asked those rows, once per antichain
    rs = get_rs(name)
    cones = _cone_sample(name)
    subs = [cone_poset(rs, w) for w in cones]
    expected = [_flats(flats_in_cone(rs, sub.elements, w)) for sub, w in zip(subs, cones)]

    def refused(*args):
        raise AssertionError("a flat proof moved a point")

    monkeypatch.setattr(shi, "act_point", refused)
    assert [_flats(flats_in_cone(rs, sub.elements, w)) for sub, w in zip(subs, cones)] == expected
    systems = []

    def recording(dim, rows):
        systems.append(rows)
        return feasible_rows(dim, rows)

    monkeypatch.setattr(shi, "antichain_points", lambda rs: AntichainPoints({}, {}))
    monkeypatch.setattr(shi, "feasible_rows", recording)
    for sub, w, flats in zip(subs, cones, expected):
        systems.clear()
        assert _flats(flats_in_cone(rs, sub.elements, w)) == flats
        assert systems == [_deletion_rows(rs, sub.elements, A, A) for A in sub.antichains()]


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
    regions = [regions_in_dominant(rs, complement_of_inversions(rs, w)) for w in cones]

    def answers():
        """Ceilings and flats of every cone, with the kernel calls of each."""
        out = []
        for w, found in zip(cones, regions):
            E = complement_of_inversions(rs, w)
            calls.clear()
            ceilings = [ceiling_oracle(rs, E, r) for r in found]
            out.append((ceilings, len(calls)))
            calls.clear()
            out.append((_flats(flats_in_cone(rs, complement_of_inversions(rs, w), w)), len(calls)))
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
        poset = flats_in_cone(rs, complement_of_inversions(rs, w), w)
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


def test_reports_build_no_poset(monkeypatch):
    # a report reads the per-type antichain table for its regions, flats
    # and Poincare polynomial: it builds no poset (every construction
    # and restriction adopts its masks) and enumerates no antichains
    rs = get_rs("F4")
    antichain_points(rs)
    calls = []
    adopt = FinitePoset._adopt
    enumerate_antichains = FinitePoset._enumerate_antichains

    def counting_adopt(self, elements, up):
        calls.append("adopt")
        return adopt(self, elements, up)

    def counting_enumerate(self):
        calls.append("enumerate")
        return enumerate_antichains(self)

    monkeypatch.setattr(FinitePoset, "_adopt", counting_adopt)
    monkeypatch.setattr(FinitePoset, "_enumerate_antichains", counting_enumerate)
    for report in (
        lambda: cone_report(rs, weyl_group(rs)[500]),
        lambda: shi.deletion_report(rs, range(0, 24, 2)),
    ):
        report()
    assert calls == []
    # the check sees them: a restriction adopts once, its walk once
    shi.cone_poset(rs, weyl_group(rs)[500]).antichains()
    assert calls == ["adopt", "enumerate"]
