import random
from collections import Counter
from dataclasses import replace
from itertools import product

import pytest

from conftest import RANK_4, bumped_point_table, get_rs
from shicone import shi, verify
from shicone.exactgeom import GT, check_witness, intersect_hyperplanes
from shicone.posets import FinitePoset
from shicone.rootsys import inversion_set, root_poset, signed_roots, weyl_group
from shicone.shi import AntichainPoints, Flat, antichain_points
from shicone.verify import (
    TypeContext,
    check_boolean_intervals,
    check_cone_cut,
    check_counting,
    check_flat_bijection,
    check_fuss,
    check_hilbert_matches_poincare,
    check_region_ceiling_bijection,
    check_region_ring_isomorphism,
    run_suite,
)


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "D3", "A4"])
def test_full_suite_passes(name):
    results = run_suite(get_rs(name), "all")
    assert [r.name for r in results] == [
        "region_ceiling_bijection",
        "flat_antichain_bijection",
        "boolean_intervals",
        "cone_cut_criterion",
        "antichain_independence",
        "nonnesting_flat_injectivity",
        "comparable_pair_infeasibility",
        "counting_identities",
        "hilbert_matches_poincare",
        "region_ring_isomorphism",
        "antichain_recursion",
    ]
    for r in results:
        assert r.passed, r.line()


def test_single_theorem_selection():
    results = run_suite(get_rs("A1"), "2")
    assert [r.name for r in results] == ["flat_antichain_bijection"]


def test_bad_selector():
    with pytest.raises(ValueError):
        run_suite(get_rs("A1"), "7")
    # the selector is checked before the extended-level branch
    with pytest.raises(ValueError, match="selector"):
        run_suite(get_rs("A2"), theorem="bogus", m=2)
    # the extended level runs one summary, not a single theorem's checks
    for theorem in ("1", "2", "3"):
        with pytest.raises(ValueError, match="needs m = 1"):
            run_suite(get_rs("A2"), theorem=theorem, m=2)


def test_level_two_suite():
    results = run_suite(get_rs("A2"), m=2)
    assert len(results) == 1
    assert results[0].passed
    assert "11 flats vs 12 regions" in results[0].details


def test_check_result_line_format():
    results = run_suite(get_rs("A1"), "1")
    line = results[0].line()
    assert line.startswith("PASS region_ceiling_bijection")


def test_fuss_level_one_consistency():
    ctx = TypeContext(get_rs("B2"))
    details = check_fuss(ctx, 1)
    assert "m=1" in details


@pytest.mark.parametrize("name", RANK_4)
def test_region_and_flat_checks_restrict_and_enumerate_once_per_cone(name, monkeypatch):
    # the context's subposet is the checks' own enumeration, restricted
    # and walked once per cone; the regions and the flats are built from
    # the per-type antichain table and add neither
    rs = get_rs(name)
    root_poset(rs).antichains()
    antichain_points(rs)
    ctx = TypeContext(rs)
    ctx.W = tuple(random.Random(name).sample(ctx.W, 3))
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
    check_region_ceiling_bijection(ctx)
    check_flat_bijection(ctx)
    assert calls == ["restrict", "enumerate"] * len(ctx.W)


def _counting_oracles(monkeypatch) -> Counter:
    """Counts the calls of the sign and closure oracles made through the
    names that :mod:`shicone.verify` reads."""
    calls = Counter()
    for name in ("dominant_sign_oracle", "flats_oracle"):

        def counting(*args, name=name, oracle=getattr(verify, name)):
            calls[name] += 1
            return oracle(*args)

        monkeypatch.setattr(verify, name, counting)
    return calls


@pytest.mark.parametrize("name", RANK_4)
def test_rank_4_checks_call_no_oracle(name, monkeypatch):
    # verify's bound is the one place that decides where the oracles run,
    # and the region and flat checks keep their rank-4 cost without them
    ctx = TypeContext(get_rs(name))
    ctx.W = tuple(random.Random(name).sample(ctx.W, 2))
    calls = _counting_oracles(monkeypatch)
    check_region_ceiling_bijection(ctx)
    check_flat_bijection(ctx)
    assert calls == Counter()


@pytest.mark.parametrize("name", RANK_4)
def test_oracles_agree_with_constructions_at_rank_4(name, monkeypatch):
    # with verify's bound raised to 4, both oracles run once per cone, on
    # every A4 cone and a seeded sample of each other type, and agree
    # with the regions and the flats built from the antichain table
    monkeypatch.setattr(verify, "MAX_ORACLE_RANK", 4)
    calls = _counting_oracles(monkeypatch)
    ctx = TypeContext(get_rs(name))
    if name != "A4":
        ctx.W = tuple(random.Random(name).sample(ctx.W, 12))
    cones = f"{len(ctx.W)} cones,"
    assert check_region_ceiling_bijection(ctx).startswith(cones)
    assert check_flat_bijection(ctx).startswith(cones)
    assert calls == {"dominant_sign_oracle": len(ctx.W), "flats_oracle": len(ctx.W)}


@pytest.mark.parametrize(
    "check, message",
    [
        (check_region_ceiling_bijection, "region/antichain count mismatch"),
        (check_flat_bijection, "flat/antichain count mismatch"),
    ],
)
def test_table_missing_an_antichain_fails_the_counts(check, message, monkeypatch):
    # the checks count each cone's antichains by the context's own walk
    # of its subposet, never by the construction's table, so a table that
    # loses one antichain loses a region and a flat and fails both counts
    rs = get_rs("B3")
    antichain_points(rs)
    table = shi.antichain_table(rs)
    k = len(table) // 2
    monkeypatch.setattr(shi, "antichain_table", lambda rs: table[:k] + table[k + 1 :])
    with pytest.raises(verify._Failure, match=message):
        check(TypeContext(rs))


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3"])
def test_suite_builds_each_cone_inverse_once(name, monkeypatch):
    # w^{-1} is built from the reversed word once per cone, by the
    # context, for every check that pulls back by it
    rs = get_rs(name)
    calls = []
    build = verify.element_from_word

    def counting(rs, word):
        word = tuple(word)
        calls.append(word)
        return build(rs, word)

    monkeypatch.setattr(verify, "element_from_word", counting)
    results = run_suite(rs, "all")
    assert all(r.passed for r in results)
    assert sorted(calls) == sorted(w.word[::-1] for w in weyl_group(rs))


def test_tampered_witness_fails_region_check():
    # a dominant region carrying another region's witness
    ctx = TypeContext(get_rs("A2"))
    regions = ctx.regions(ctx.W[0])
    regions[0] = replace(regions[0], witness=regions[-1].witness)
    with pytest.raises(verify._Failure, match="witness violates the region description"):
        check_region_ceiling_bijection(ctx)


def test_untransported_witness_fails_cone_check():
    # a cone region keeping the dominant witness it was transported from
    ctx = TypeContext(get_rs("A2"))
    w = ctx.W[1]
    cone_regions = ctx.cone_regions(w)
    cone_regions[0] = replace(cone_regions[0], witness=ctx.regions(w)[0].witness)
    with pytest.raises(verify._Failure, match="transported witness leaves its cone cell"):
        check_region_ceiling_bijection(ctx)


def test_ceiling_gaining_an_inversion_fails_pullback():
    # a transported ceiling gaining an inversion of its cone: that root
    # pulls back to a negative root, so the ceiling does not pull back
    ctx = TypeContext(get_rs("A2"))
    w = ctx.W[1]
    gained = min(inversion_set(ctx.rs, w))
    cone_regions = ctx.cone_regions(w)
    cone_regions[0] = replace(cone_regions[0], ceiling=cone_regions[0].ceiling | {gained})
    with pytest.raises(verify._Failure, match="cone ceiling does not pull back"):
        check_region_ceiling_bijection(ctx)


def _witness_rows_check(rs, inv, E, region) -> bool:
    """The region check as ``check_witness`` on one row per inequality:
    -root > -1 on the ideal outside ``inv``, -root > 0 on ``inv``, and
    root > 1 on the rest of E, root > 0 on every other root."""
    roots, N = signed_roots(rs), len(rs.positive_roots)
    above_one = E - region.ideal
    rows = [(roots[N + i], -1, GT) for i in region.ideal - inv]
    rows += [
        (roots[N + i], 0, GT) if i in inv else (roots[i], int(i in above_one), GT)
        for i in range(N)
    ]
    return check_witness(rs.rank, rows, region.witness)


@pytest.mark.parametrize("name", ["A3", "B3", "C3"])
def test_witness_check_matches_check_witness_rows(name):
    """Every dominant and transported region description of every cone,
    against every witness of that cone, each also with ``den <= 0`` and
    with the wrong length, and, in the identity and longest cones,
    against a grid of points that puts roots exactly on 0 and on 1."""
    rs = get_rs(name)
    ctx = TypeContext(rs)
    everything = frozenset(range(len(rs.positive_roots)))
    grid = [(nums, 2) for nums in product(range(-2, 3), repeat=rs.rank)]
    outcomes = set()
    for w in ctx.W:
        inv = inversion_set(rs, w)
        regions, cone_regions = ctx.regions(w), ctx.cone_regions(w)
        descriptions = [(frozenset(), frozenset(ctx.sub(w).elements), r) for r in regions]
        descriptions += [(inv, everything - inv, r) for r in cone_regions]
        points = {r.witness for r in regions + cone_regions}
        for nums, den in list(points):
            points |= {(nums, 0), (nums, -den), (nums[1:], den), (nums + (0,), den)}
        if w == ctx.W[0] or w == ctx.W[-1]:
            points.update(grid)
        for inv_d, E, region in descriptions:
            for point in points:
                probe = replace(region, witness=point)
                expected = _witness_rows_check(rs, inv_d, E, probe)
                assert verify._witness_in_region(rs, inv_d, E, probe) == expected, (
                    w.word,
                    region,
                    point,
                )
                outcomes.add(expected)
    assert outcomes == {True, False}


def _first_region(ctx, keep):
    """The first cone, in group order, with a dominant region that ``keep``
    accepts, and that region's position among the cone's regions."""
    for w in ctx.W:
        for k, region in enumerate(ctx.regions(w)):
            if keep(ctx.sub(w), region):
                return w, k
    raise AssertionError("no such region")


@pytest.mark.parametrize(
    "case",
    ["ceiling-is-its-chain-ideal", "ceiling-gains-an-inversion", "ideal-gains-a-root"],
)
def test_tampered_region_fails_ideal_checks(case):
    # the ceiling must be an antichain of the cone poset that generates
    # the region's ideal; together these say the ideal is an order ideal
    # and the ceiling its maximal antichain
    ctx = TypeContext(get_rs("A2"))
    if case == "ceiling-is-its-chain-ideal":
        w, k = _first_region(ctx, lambda sub, r: len(r.ideal) == 2 and len(r.ceiling) == 1)
        change = lambda r: replace(r, ceiling=r.ideal)
        message = "ceiling is not an antichain"
    elif case == "ceiling-gains-an-inversion":
        w, k = _first_region(ctx, lambda sub, r: len(sub) < 3 and not r.ceiling)
        lost = min(inversion_set(ctx.rs, w))
        change = lambda r: replace(r, ceiling=r.ceiling | {lost})
        message = "ceiling is not an antichain"
    else:
        # a minimal root outside the ideal joins it, so the ideal stays an
        # order ideal but its maximal antichain is no longer the ceiling
        w, k = _first_region(ctx, lambda sub, r: len(r.ideal) == 1 and len(sub) == 3)
        sub, ideal = ctx.sub(w), ctx.regions(w)[k].ideal
        gained = next(
            b for b in sub.elements if b not in ideal and sub.is_ideal(ideal | {b})
        )
        change = lambda r: replace(r, ideal=r.ideal | {gained})
        message = "ceiling does not regenerate the ideal"
    regions = ctx.regions(w)
    regions[k] = change(regions[k])
    with pytest.raises(verify._Failure, match=message):
        check_region_ceiling_bijection(ctx)


def test_coincident_flats_fail_flat_injectivity():
    # two codim-1 flats of the dominant B2 poset made one flat: its scan
    # gives one generator set twice, so the pullback is not injective
    ctx = TypeContext(get_rs("B2"))
    poset = ctx.flats(ctx.W[0])
    i, j = [k for k, f in enumerate(poset.flats) if f.geometry.codim == 1][:2]
    flats = list(poset.flats)
    flats[j] = flats[i]
    poset.flats = tuple(flats)
    with pytest.raises(verify._Failure, match="pullback map is not injective"):
        check_flat_bijection(ctx)


def _replace_flat(rs, poset, codim, gens):
    """Replace the poset's first flat of ``codim`` by the meet of the
    level-1 hyperplanes of the roots ``gens``, with them as generators."""
    k = next(k for k, f in enumerate(poset.flats) if f.geometry.codim == codim)
    geometry = intersect_hyperplanes(rs.rank, [(rs.positive_roots[g], 1) for g in gens])
    assert geometry.codim == codim
    flats = list(poset.flats)
    flats[k] = Flat(frozenset(gens), geometry, flats[k].mobius)
    poset.flats = tuple(flats)


def test_flat_on_an_inversion_hyperplane_fails_flat_check():
    # a cone's codim-1 flat replaced by the level-1 hyperplane of an
    # inversion of w: its generators and geometry agree, so the scan
    # passes, and the pullback finds the root wall-separated
    ctx = TypeContext(get_rs("B2"))
    w = ctx.W[1]
    _replace_flat(ctx.rs, ctx.flats(w), 1, {min(inversion_set(ctx.rs, w))})
    with pytest.raises(verify._Failure, match="flat lies in a wall-separated hyperplane"):
        check_flat_bijection(ctx)


def test_comparable_pair_flat_fails_antichain_pullback():
    # B2's codim-2 dominant flat replaced by the meet of the hyperplanes
    # of a and 2a + b, comparable roots: that point lies on no other
    # level-1 hyperplane, so the scan passes and the pullback, the pair
    # itself, is not an antichain
    ctx = TypeContext(get_rs("B2"))
    a, top = 1, 3
    assert ctx.rs.positive_roots[a] == (1, 0) and ctx.rs.positive_roots[top] == (2, 1)
    assert ctx.rp.leq(a, top)
    _replace_flat(ctx.rs, ctx.flats(ctx.W[0]), 2, {a, top})
    with pytest.raises(
        verify._Failure, match="pullback is not an antichain of the cone poset"
    ):
        check_flat_bijection(ctx)


def test_wrong_flat_mobius_fails_eulerian_check():
    # mu(V, X) of a codim-2 flat is the [V, X] row of the Eulerian check,
    # which is what makes the flats' Mobius values alternate
    ctx = TypeContext(get_rs("B2"))
    poset = ctx.flats(ctx.W[0])
    j = next(k for k, f in enumerate(poset.flats) if f.geometry.codim == 2)
    poset._mobius_rows[0][j] = 5
    with pytest.raises(verify._Failure, match="interval Mobius is not Eulerian"):
        check_boolean_intervals(ctx)


def test_swapped_flats_fail_poincare_checks():
    # the dominant cone carrying the flats of the longest cone, whose
    # Poincare polynomial is 1: the order-ring side is read off the root
    # poset, so only the geometric side changes
    ctx = TypeContext(get_rs("B2"))
    e, w0 = ctx.W[0], ctx.W[-1]
    assert ctx.flats(e).poincare_polynomial() != ctx.flats(w0).poincare_polynomial()
    ctx._memo[("flats", e.word)] = ctx.flats(w0)
    with pytest.raises(
        verify._Failure, match="Hilbert series differs from Poincare polynomial"
    ):
        check_hilbert_matches_poincare(ctx)
    with pytest.raises(verify._Failure, match="dominant Whitney numbers not Narayana"):
        check_counting(ctx)


def test_swapped_flats_fail_region_ring_check():
    # both ring series are computed from their own points and compared
    # with the dominant flats, which now have Poincare polynomial 1
    ctx = TypeContext(get_rs("B2"))
    ctx._memo[("flats", ctx.W[0].word)] = ctx.flats(ctx.W[-1])
    with pytest.raises(
        verify._Failure, match="VG ring Hilbert series differs from Poincare polynomial"
    ):
        check_region_ring_isomorphism(ctx)


def test_unordered_root_poset_fails_order_ring_series():
    # the regions and flats stay right, but the order ring is read off the
    # root poset: without its relations every subset is an ideal, so the
    # order ring has other points than the region ring
    ctx = TypeContext(get_rs("B2"))
    ctx.rp = FinitePoset(ctx.rp.elements)
    with pytest.raises(
        verify._Failure, match="region ideals are not the order ideals of the root poset"
    ):
        check_region_ring_isomorphism(ctx)


def test_swapped_witnesses_fail_region_ring_values():
    # two dominant regions trading witnesses read each other's Heaviside values
    ctx = TypeContext(get_rs("A3"))
    regions = ctx.regions(ctx.W[0])
    i = next(k for k, r in enumerate(regions) if not r.ideal)
    j = next(k for k, r in enumerate(regions) if len(r.ideal) == 6)
    regions[i], regions[j] = (
        replace(regions[i], witness=regions[j].witness),
        replace(regions[j], witness=regions[i].witness),
    )
    with pytest.raises(verify._Failure, match="Heaviside values disagree"):
        check_region_ring_isomorphism(ctx)


def test_interval_mobius_runs_at_rank_4():
    details = check_boolean_intervals(TypeContext(get_rs("A4")))
    pairs = int(details.split(", ")[1].split()[0])
    assert pairs > 0


def test_extra_hyperplane_fails_boolean_check(monkeypatch):
    # every flat claimed to lie on every hyperplane of the cone
    ctx = TypeContext(get_rs("B2"))
    monkeypatch.setattr(verify, "contains_flat", lambda outer, inner: True)
    with pytest.raises(verify._Failure, match="lower interval is not Boolean"):
        check_boolean_intervals(ctx)


@pytest.mark.parametrize("name", ["A3", "B3", "G2", "D4"])
def test_cone_cut_calls_kernel_only_for_meetings(name, monkeypatch, fresh_point_table):
    # cone-cut inversions are proved by checked Farkas certificates and
    # meetings by checked table points, so the kernel is not called; with
    # an empty table, or one whose every point is refused, it runs only
    # for the hyperplanes meeting a cone
    ctx = TypeContext(get_rs(name))
    calls = []
    kernel = verify.feasible_rows

    def counting(dim, rows):
        witness = kernel(dim, rows)
        calls.append(witness is not None)
        return witness

    monkeypatch.setattr(verify, "feasible_rows", counting)
    check_cone_cut(ctx)
    assert calls == []
    npos = len(ctx.rs.positive_roots)
    meets = sum(npos - len(inversion_set(ctx.rs, w)) for w in ctx.W)
    bumped = bumped_point_table(ctx.rs, antichain_points(ctx.rs))
    for table in (AntichainPoints({}, {}), bumped):
        calls.clear()
        monkeypatch.setattr(verify, "antichain_points", lambda rs: table)
        check_cone_cut(ctx)
        assert len(calls) == meets and all(calls)
