import random
from dataclasses import replace

import pytest

from conftest import RANK_4, bumped_point_table, get_rs
from shicone import verify
from shicone.posets import FinitePoset
from shicone.rootsys import inversion_set, root_poset
from shicone.shi import AntichainPoints, antichain_points
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
    # the regions and the flats of a cone are built from the subposet the
    # context holds, so each cone's poset is restricted once and its
    # antichains are enumerated once
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
    # root poset: without its relations every subset is an ideal
    ctx = TypeContext(get_rs("B2"))
    ctx.rp = FinitePoset(ctx.rp.elements)
    with pytest.raises(
        verify._Failure, match="order ring Hilbert series differs from Poincare polynomial"
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
