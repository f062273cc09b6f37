"""Every span the benchmark's traced run requires is reached by a small
pass of its workload, so a refactor that stops calling one (or calls one
the workload must not) fails here rather than only in ``--trace 1``.

The benchmark's own ``perfbench/harness.py`` and ``perfbench/layers.py``
are imported as they are and not modified.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

from conftest import get_rs
from shicone import cli, shi, verify

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import harness  # noqa: E402
import layers  # noqa: E402


def _rank4_cones():
    ctx = verify.TypeContext(get_rs("A4"))
    ctx.W = (ctx.W[60],)
    verify.check_region_ceiling_bijection(ctx)
    verify.check_flat_bijection(ctx)


def _rank3_whole():
    rs = get_rs("A2")
    verify.run_suite(rs, "all")
    verify.run_suite(rs, m=2)
    shi.full_arrangement_poincare(rs)


def _order_ring():
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["orderring", "--type", "B2"]) == 0


#: A small pass of each workload: the same entry points on fewer inputs.
SMALL_PASSES = {
    layers.CONES: _rank4_cones,
    layers.WHOLE: _rank3_whole,
    layers.RING: _order_ring,
}


@pytest.mark.parametrize("workload", list(SMALL_PASSES))
def test_small_pass_records_every_required_span(workload):
    tracer = harness.Tracer()
    bindings = layers.install(tracer)
    try:
        SMALL_PASSES[workload]()
    finally:
        not_restored = layers.restore(bindings)
    assert not_restored == []
    assert layers.problems(tracer, workload) == []
