"""Tests of the benchmark harness's own arithmetic and of its tracing.

Run with ``python3 -m pytest perfbench`` or ``python3 -m unittest
discover -s perfbench``.  The tracing tests import shicone from src/.
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    """A clock that only moves when a test says so."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def spend(self, seconds):
        self.now += seconds


class SelfTimeTest(unittest.TestCase):
    def setUp(self):
        self.clock = FakeClock()
        self.tracer = harness.Tracer(self.clock)

    def test_nested_spans(self):
        t, clock = self.tracer, self.clock

        def leaf():
            clock.spend(2.0)

        def middle():
            clock.spend(1.0)
            wrapped_leaf()
            wrapped_leaf()
            clock.spend(0.5)

        wrapped_leaf = t.wrap("leaf", leaf)
        wrapped_middle = t.wrap("middle", middle)
        wrapped_middle()
        clock.spend(3.0)  # outside every span
        self.assertEqual(t.calls, {"leaf": 2, "middle": 1})
        self.assertEqual(t.self_s, {"leaf": 4.0, "middle": 1.5})

    def test_recursive_spans_count_time_once(self):
        t, clock = self.tracer, self.clock

        def countdown(n):
            clock.spend(1.0)
            if n:
                wrapped(n - 1)
            clock.spend(0.25)

        wrapped = t.wrap("countdown", countdown)
        wrapped(3)
        self.assertEqual(t.calls["countdown"], 4)
        self.assertEqual(t.self_s["countdown"], 5.0)
        self.assertEqual(clock.now, 5.0)

    def test_span_closes_on_exception(self):
        t, clock = self.tracer, self.clock

        def boom():
            clock.spend(1.0)
            raise RuntimeError("boom")

        def outer():
            clock.spend(1.0)
            try:
                wrapped_boom()
            except RuntimeError:
                pass

        wrapped_boom = t.wrap("boom", boom)
        t.wrap("outer", outer)()
        self.assertEqual(t.self_s, {"boom": 1.0, "outer": 1.0})
        self.assertEqual(t._open, [])

    def test_layer_self_times_add_up_to_wall(self):
        t, clock = self.tracer, self.clock
        names = [name for name, *_ in layers.SPANS]
        inner = t.wrap(names[1], lambda: clock.spend(0.5))

        def outer():
            clock.spend(1.0)
            inner()

        for name in names:
            t.wrap(name, lambda: None)
        t.wrap(names[0], outer)()
        clock.spend(0.25)  # benchmark glue, outside every span
        wall = clock.now
        out = layers.metrics(t, passes=1, wall_s=wall, scale=2.0, overhead_frac=0.4)
        self_total = sum(out[f"{name}.self_s"] for name in names)
        self.assertAlmostEqual(self_total + out["other.self_s"], out["trace.wall_s"])
        self.assertAlmostEqual(out["other.self_s"], 0.5)
        self.assertAlmostEqual(out["trace.wall_s"], 3.5)
        self.assertEqual(out["trace.overhead_frac"], 0.4)


class PercentileTest(unittest.TestCase):
    def test_tail_rule_leaves_ten_beyond(self):
        cases = {20: 500, 39: 500, 40: 750, 99: 750, 100: 900, 199: 900,
                 200: 950, 999: 950, 1000: 990, 9999: 990, 10000: 999}
        for n, expected in cases.items():
            self.assertEqual(harness.tail_permille(n), expected, n)
            beyond = n - harness.nearest_rank(expected, n)
            self.assertGreaterEqual(beyond, harness.MIN_BEYOND, n)

    def test_tail_rule_needs_twenty_samples(self):
        with self.assertRaises(ValueError):
            harness.tail_permille(19)

    def test_nearest_rank_percentile(self):
        samples = list(range(100, 0, -1))  # 1..100, unsorted
        self.assertEqual(harness.percentile(samples, 500), 50)
        self.assertEqual(harness.percentile(samples, 900), 90)
        self.assertEqual(harness.percentile([7.0], 999), 7.0)
        self.assertEqual(harness.permille_label(900), "p90")
        self.assertEqual(harness.permille_label(999), "p99.9")

    def test_item_medians(self):
        passes = [[1.0, 10.0, 5.0], [3.0, 11.0, 5.0], [2.0, 90.0, 6.0]]
        self.assertEqual(harness.item_medians(passes), [2.0, 11.0, 5.0])
        with self.assertRaises(ValueError):
            harness.item_medians([[1.0], [1.0, 2.0]])


class ReferenceScalingTest(unittest.TestCase):
    def test_speed_scale(self):
        nominal = harness.REF_NOMINAL_S
        self.assertEqual(harness.speed_scale([2 * nominal] * 3), 0.5)

    def test_one_inflated_timing_moves_nothing(self):
        nominal = harness.REF_NOMINAL_S
        refs = [nominal] * 4 + [50 * nominal] + [nominal] * 4
        self.assertEqual(harness.window_scales(refs), [1.0] * 8)

    def test_window_follows_a_slowdown(self):
        nominal = harness.REF_NOMINAL_S
        scales = harness.window_scales([nominal] * 5 + [2 * nominal] * 5)
        self.assertEqual((len(scales), scales[0], scales[-1]), (9, 1.0, 0.5))

    def test_pass_reports_normalised_seconds(self):
        clock = FakeClock()
        ok = lambda raw, seconds: [workloads.Item("x", seconds, "")]
        units = [workloads.Unit("x", lambda: clock.spend(1.0), ok, 1)] * 3
        result = workloads.run_pass(units, clock, lambda: 2 * harness.REF_NOMINAL_S)
        self.assertEqual((result.raw_wall, result.wall), (3.0, 1.5))
        self.assertEqual([i.seconds for i in result.items], [0.5] * 3)


class FailedFracTest(unittest.TestCase):
    def test_share(self):
        self.assertEqual(harness.failed_frac(10, 0), 0.0)
        self.assertEqual(harness.failed_frac(8, 2), 0.25)
        for attempted, failed in ((0, 0), (3, 4), (3, -1)):
            with self.assertRaises(ValueError):
                harness.failed_frac(attempted, failed)

    def test_pass_counts_every_failure(self):
        def ok(raw, seconds):
            return [workloads.Item("ok", seconds, str(raw))]

        def wrong(raw, seconds):
            return [workloads.Item("wrong", seconds, str(raw), "mismatch")]

        def unreadable(raw, seconds):
            raise KeyError("payload")

        def raises():
            raise RuntimeError("kernel failed")

        units = [
            workloads.Unit("a", lambda: 1, ok, 1),
            workloads.Unit("b", lambda: 2, wrong, 1),
            workloads.Unit("c", raises, ok, 3),  # stands for three items
            workloads.Unit("d", lambda: 4, unreadable, 2),
        ]
        items = workloads.run_pass(units, FakeClock(), lambda: 1e-3).items
        failed = sum(1 for item in items if item.error)
        self.assertEqual((len(items), failed), (7, 6))
        self.assertAlmostEqual(harness.failed_frac(len(items), failed), 6 / 7)


class OracleTest(unittest.TestCase):
    def test_numerology(self):
        self.assertEqual(workloads.fuss_catalan("F4", 1), 105)
        self.assertEqual(workloads.fuss_catalan("A2", 2), 12)
        self.assertEqual(workloads.fuss_catalan("D4", 1), 50)
        self.assertEqual(workloads.shi_poincare("B2"), [1, 8, 16])
        self.assertEqual(workloads.poly_coeffs("1 + 12t + 29t^2 + 13t^3"), [1, 12, 29, 13])
        self.assertEqual(workloads.poly_coeffs("1 + t^2"), [1, 0, 1])

    def test_antichain_counter(self):
        chain = workloads._closure(4, [(0, 1), (1, 2), (2, 3)])
        self.assertEqual(workloads.count_antichains(chain), 5)
        self.assertEqual(workloads.count_antichains(workloads._closure(5, [])), 32)
        # the poset {0 < 2, 1 < 2}: {}, 0, 1, 2, {0, 1}
        self.assertEqual(workloads.count_antichains(workloads._closure(3, [(0, 2), (1, 2)])), 5)

    def test_random_poset_in_band(self):
        import random

        up, count = workloads.random_poset(random.Random(3), 500)
        self.assertEqual(count, workloads.count_antichains(up))
        self.assertTrue((1 - workloads.POSET_TOL) * 500 <= count <= 500)
        covers = workloads.poset_json(up)["covers"]
        self.assertEqual(workloads._closure(len(up), covers), up)


class BenchmarkFileTest(unittest.TestCase):
    def test_per_layer_metrics_match_benchmark_json(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
        self.assertEqual(listed, layers.metric_units())


class TracingTest(unittest.TestCase):
    """Wrapping the real package, then restoring it."""

    @classmethod
    def setUpClass(cls):
        sys.path.insert(0, str(HERE.parent / "src"))

    def test_install_restore_round_trip(self):
        from shicone import exactgeom, shi, verify
        from shicone.rootsys import CartanType, build_root_system

        saved = (exactgeom.feasible_rows, shi.feasible_rows, verify.feasible_rows,
                 verify.check_cone_cut, list(verify._EXTRA_CHECKS))
        tracer = harness.Tracer()
        bindings = layers.install(tracer)
        try:
            self.assertIsNot(shi.feasible_rows, saved[1])
            rs = build_root_system(CartanType.parse("A2"))
            results = verify.run_suite(rs, "all")
            self.assertTrue(all(r.passed for r in results))
        finally:
            self.assertEqual(layers.restore(bindings), [])
        self.assertEqual(
            saved,
            (exactgeom.feasible_rows, shi.feasible_rows, verify.feasible_rows,
             verify.check_cone_cut, list(verify._EXTRA_CHECKS)),
        )
        for name in ("fmcore", "exactgeom.feasible_rows", "verify.cone_cut",
                     "shi.dominant_sign_oracle", "posets.antichains"):
            self.assertGreater(tracer.calls[name], 0, name)
        self.assertGreater(tracer.counters["fmcore.rows"], 0)


if __name__ == "__main__":
    unittest.main()
