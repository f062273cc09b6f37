"""The layers the traced run wraps, and the per-layer metrics it reports.

Each span wraps one public function of a shicone layer, from outside the
package: the wrapper is bound wherever the original is bound, so a name
imported with ``from .exactgeom import feasible_rows`` is patched in
``exactgeom``, ``shi`` and ``verify`` alike, and the check tables of
``verify`` get the wrapped checks too.  Methods are patched on their
class; the kernel is reached through the ``_fmcore`` module that
``exactgeom`` selected.  ``restore`` puts every original back and
reports any binding that is not the saved original afterwards.
"""

from __future__ import annotations

import sys

CONES, WHOLE, RING = "rank4-cones", "rank3-whole", "order-ring"
SUITES = (CONES, WHOLE)

#: (span name, module, attribute path, workloads that must call it)
SPANS = (
    ("fmcore", "shicone.exactgeom", "_fmcore.solve", SUITES),
    ("rootsys.inverse_element", "shicone.rootsys", "inverse_element", SUITES),
    ("rootsys.inversion_set", "shicone.rootsys", "inversion_set", SUITES),
    ("rootsys.act", "shicone.rootsys", "act", SUITES),
    ("rootsys.element_from_word", "shicone.rootsys", "element_from_word", SUITES),
    ("exactgeom.feasible_rows", "shicone.exactgeom", "feasible_rows", SUITES),
    ("exactgeom.intersect_hyperplanes", "shicone.exactgeom", "intersect_hyperplanes", SUITES),
    ("exactgeom.flat_contains", "shicone.exactgeom", "flat_contains", SUITES),
    ("exactgeom.contains_flat", "shicone.exactgeom", "contains_flat", (WHOLE,)),
    ("exactgeom.matrix_rank", "shicone.exactgeom", "matrix_rank", (WHOLE,)),
    ("shi.regions_in_dominant", "shicone.shi", "regions_in_dominant", SUITES),
    ("shi.ceiling_oracle", "shicone.shi", "ceiling_oracle", SUITES),
    ("shi.transport_regions", "shicone.shi", "transport_regions", SUITES),
    ("shi.act_point", "shicone.shi", "act_point", SUITES),
    ("shi.flats_in_cone", "shicone.shi", "flats_in_cone", SUITES),
    ("shi.IntersectionPoset", "shicone.shi", "IntersectionPoset.__init__", SUITES),
    ("shi.dominant_sign_oracle", "shicone.shi", "dominant_sign_oracle", (WHOLE,)),
    ("shi.flats_oracle", "shicone.shi", "flats_oracle", (WHOLE,)),
    ("shi.fuss_dominant", "shicone.shi", "fuss_dominant", (WHOLE,)),
    ("shi.full_arrangement_poincare", "shicone.shi", "full_arrangement_poincare", (WHOLE,)),
    ("verify.region_ceiling_bijection", "shicone.verify", "check_region_ceiling_bijection", SUITES),
    ("verify.flat_bijection", "shicone.verify", "check_flat_bijection", SUITES),
    ("verify.boolean_intervals", "shicone.verify", "check_boolean_intervals", (WHOLE,)),
    ("verify.cone_cut", "shicone.verify", "check_cone_cut", (WHOLE,)),
    ("verify.antichain_independence", "shicone.verify", "check_antichain_independence", (WHOLE,)),
    ("verify.nonnesting_injectivity", "shicone.verify", "check_nonnesting_injectivity", (WHOLE,)),
    ("verify.comparable_pair_infeasibility", "shicone.verify", "check_comparable_pair_infeasibility", (WHOLE,)),
    ("verify.counting", "shicone.verify", "check_counting", (WHOLE,)),
    ("verify.hilbert_matches_poincare", "shicone.verify", "check_hilbert_matches_poincare", (WHOLE,)),
    ("verify.region_ring_isomorphism", "shicone.verify", "check_region_ring_isomorphism", (WHOLE,)),
    ("verify.antichain_recursion", "shicone.verify", "check_antichain_recursion", (WHOLE,)),
    ("verify.fuss", "shicone.verify", "check_fuss", (WHOLE,)),
    ("posets.antichains", "shicone.posets", "FinitePoset.antichains", (CONES, WHOLE, RING)),
    ("posets.restrict", "shicone.posets", "FinitePoset.restrict", SUITES),
    ("posets.ideal_generated", "shicone.posets", "FinitePoset.ideal_generated", SUITES),
    ("orderring.polytope_vertices", "shicone.orderring", "polytope_vertices", (RING,)),
    ("orderring.hilbert_series", "shicone.orderring", "hilbert_series", (WHOLE, RING)),
    ("cli.render", "shicone.cli", "render", (RING,)),
)

#: Spans that must record no call at all on a workload.
MUST_NOT_CALL = {RING: ("fmcore", "rootsys.inverse_element")}


def _observe_kernel(tracer, args, result) -> None:
    tracer.count("fmcore.rows", len(args[1]))
    if result is None:
        tracer.count("fmcore.infeasible")
    else:
        tracer.maximum("fmcore.max_den_bits", result[1].bit_length())


def _observe_antichains(tracer, args, result) -> None:
    tracer.count("posets.antichains.out", len(result))


def _observe_render(tracer, args, result) -> None:
    tracer.count("cli.bytes_out", len(result.encode()))


OBSERVERS = {
    "fmcore": _observe_kernel,
    "posets.antichains": _observe_antichains,
    "cli.render": _observe_render,
}

#: Per-layer metrics beyond ``<span>.calls`` and ``<span>.self_s``.
EXTRA_METRICS = (
    ("fmcore.rows", "count"),
    ("fmcore.infeasible_frac", "fraction"),
    ("fmcore.max_den_bits", "bits"),
    ("posets.antichains.out", "count"),
    ("cli.bytes_out", "bytes"),
    ("other.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_frac", "fraction"),
)


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name, *_ in SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(EXTRA_METRICS)
    return units


def _shicone_modules() -> list:
    return [
        m
        for name, m in sorted(sys.modules.items())
        if name == "shicone" or name.startswith("shicone.")
    ]


def _tables(module) -> list:
    """Module-level lists (also as dict values) that may hold functions."""
    found = []
    for value in vars(module).values():
        if isinstance(value, list):
            found.append(value)
        elif isinstance(value, dict):
            found.extend(v for v in value.values() if isinstance(v, list))
    return found


def install(tracer) -> list:
    """Wrap every span; returns the bindings ``(owner, key, original)``."""
    import shicone.cli  # noqa: F401  (loads every module a span lives in)

    bindings = []
    modules = _shicone_modules()
    for name, module_name, path, _ in SPANS:
        owner = sys.modules[module_name]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = vars(owner)[attr]
        wrapper = tracer.wrap(name, original, OBSERVERS.get(name))
        if isinstance(owner, type):
            bindings.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    bindings.append((module, key, original))
                    setattr(module, key, wrapper)
            for table in _tables(module):
                for i, entry in enumerate(table):
                    if isinstance(entry, tuple) and any(x is original for x in entry):
                        bindings.append((table, i, entry))
                        table[i] = tuple(wrapper if x is original else x for x in entry)
    return bindings


def _bound(owner, key):
    return owner[key] if isinstance(owner, list) else getattr(owner, key)


def restore(bindings) -> list:
    """Put every original back; returns the bindings that did not take."""
    for owner, key, original in reversed(bindings):
        if isinstance(owner, list):
            owner[key] = original
        else:
            setattr(owner, key, original)
    return [
        f"{getattr(owner, '__name__', type(owner).__name__)}[{key!r}]"
        for owner, key, original in bindings
        if _bound(owner, key) is not original
    ]


def metrics(tracer, passes: int, wall_s: float, scale: float, overhead_frac: float) -> dict:
    """Per-pass per-layer metrics of a traced run.

    ``wall_s`` is the mean measured traced pass wall and ``scale`` the
    factor to normalised seconds (harness.window_scales) over the traced
    passes; the span self times plus ``other.self_s`` add up to
    ``trace.wall_s``, all normalised.
    """
    out = {}
    total_self = 0.0
    for name, *_ in SPANS:
        out[f"{name}.calls"] = tracer.calls[name] / passes
        out[f"{name}.self_s"] = tracer.self_s[name] * scale / passes
        total_self += out[f"{name}.self_s"]
    counters = tracer.counters
    kernel_calls = tracer.calls["fmcore"]
    out["fmcore.rows"] = counters.get("fmcore.rows", 0) / passes
    out["fmcore.infeasible_frac"] = (
        counters.get("fmcore.infeasible", 0) / kernel_calls if kernel_calls else 0.0
    )
    out["fmcore.max_den_bits"] = counters.get("fmcore.max_den_bits", 0)
    out["posets.antichains.out"] = counters.get("posets.antichains.out", 0) / passes
    out["cli.bytes_out"] = counters.get("cli.bytes_out", 0) / passes
    out["other.self_s"] = wall_s * scale - total_self
    out["trace.wall_s"] = wall_s * scale
    out["trace.overhead_frac"] = overhead_frac
    return out


def problems(tracer, workload: str) -> list:
    """Spans a workload should have called but did not, and the reverse."""
    found = []
    for name, _, _, used_by in SPANS:
        if workload in used_by and tracer.calls[name] == 0:
            found.append(f"{name} recorded no call on {workload}")
    for name in MUST_NOT_CALL.get(workload, ()):
        if tracer.calls[name]:
            found.append(f"{name} recorded {tracer.calls[name]} calls on {workload}")
    return found
