import pytest

from conftest import get_rs
from shicone.verify import TypeContext, check_fuss, run_suite


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "D3"])
def test_full_suite_passes(name):
    results = run_suite(get_rs(name), "all")
    assert results, "suite produced no checks"
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
