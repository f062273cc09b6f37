"""Arithmetic of the suite benchmark: spans, self time, tail percentiles,
and the reference loop that times are normalised by.

Stdlib only, and nothing here imports shicone, so the unit tests in
``test_harness.py`` exercise it on synthetic spans and samples.

Why normalise: on a small shared host the speed of one core drifts by
up to a factor 1.6 over seconds to minutes, because other tenants load
the sibling hardware thread, the caches and the clock, and the drift
shows in CPU time as much as in wall time.  A fixed loop timed next to
each unit of work slows down with it, so ``unit time / loop time`` stays
put.  Reported times are that ratio times REF_NOMINAL_S: seconds on a
host where the loop takes REF_NOMINAL_S, about this loop's uncontended
time on a 2-core x86-64 host with CPython 3.11.  Raw times are kept in
the run record.
"""

from __future__ import annotations

import functools
import time

#: Nominal duration of one reference_work() call, in seconds.
REF_NOMINAL_S = 1e-3
#: Candidate tail percentiles, in permille so the rank arithmetic is exact.
TAIL_LADDER_PERMILLE = (500, 750, 900, 950, 990, 999)
#: A tail percentile must leave at least this many samples beyond it.
MIN_BEYOND = 10


def reference_work() -> int:
    """Fixed pure-Python work: integer arithmetic, tuples and a dict."""
    table: dict = {}
    for i in range(4000):
        key = (i * 7919) % 1024, i & 7
        table[key] = table.get(key, 0) + i * i
    return sum(table.values())


def time_reference() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def speed_scale(refs) -> float:
    """Factor from measured to normalised seconds for work done amid the
    given reference timings; the median ignores a timing that a context
    switch inflated."""
    import statistics  # not at module level: set-up children import this module

    return REF_NOMINAL_S / statistics.median(refs)


def window_scales(refs: list, half: int = 3) -> list:
    """Speed factors for the units between consecutive reference timings
    (unit k ran between refs[k] and refs[k + 1]), each from the up to
    ``2 * half`` timings around it."""
    return [speed_scale(refs[max(0, k + 1 - half) : k + 1 + half]) for k in range(len(refs) - 1)]


def nearest_rank(permille: int, n: int) -> int:
    """1-based nearest-rank position of a percentile among ``n`` samples."""
    return max(1, -(-permille * n // 1000))


def tail_permille(n: int) -> int:
    """Highest ladder percentile that has at least MIN_BEYOND of ``n``
    samples beyond it (nearest-rank definition)."""
    best = None
    for pm in TAIL_LADDER_PERMILLE:
        if n - nearest_rank(pm, n) >= MIN_BEYOND:
            best = pm
    if best is None:
        raise ValueError(
            f"{n} samples leave fewer than {MIN_BEYOND} beyond the median"
        )
    return best


def percentile(samples, permille: int) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    return ordered[nearest_rank(permille, len(ordered)) - 1]


def permille_label(permille: int) -> str:
    """``900 -> 'p90'``, ``999 -> 'p99.9'``."""
    whole, frac = divmod(permille, 10)
    return f"p{whole}" if not frac else f"p{whole}.{frac}"


def item_medians(passes) -> list:
    """Each item's median time over passes (lists of per-item seconds,
    aligned by position)."""
    import statistics  # not at module level: set-up children import this module

    return [statistics.median(times) for times in zip(*passes, strict=True)]


def failed_frac(attempted: int, failed: int) -> float:
    """Share of attempted items that failed (wrong output or exception)."""
    if attempted < 1:
        raise ValueError("no items were attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed count outside 0..attempted")
    return failed / attempted


class Tracer:
    """Aggregates calls and self time of wrapped functions.

    A span runs from a wrapped function's entry to its exit; its self
    time is its duration minus the durations of the spans opened inside
    it.  A recursive call is a child span like any other, so time is
    never counted twice.  Only per-name totals are kept, which keeps the
    bookkeeping per call to a few list operations.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls: dict = {}
        self.self_s: dict = {}
        self.counters: dict = {}
        self._open: list = []  # child time accumulated by each open span

    def wrap(self, name: str, fn, observe=None):
        """A wrapper of ``fn`` recording a span called ``name``.

        ``observe(tracer, args, result)``, when given, runs after the
        span has closed, so its cost lands in the caller's self time.
        """
        self.calls.setdefault(name, 0)
        self.self_s.setdefault(name, 0.0)
        calls, self_s, opened, clock = self.calls, self.self_s, self._open, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            opened.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                child = opened.pop()
                calls[name] += 1
                self_s[name] += duration - child
                if opened:
                    opened[-1] += duration
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper

    def count(self, name: str, amount=1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def maximum(self, name: str, value) -> None:
        self.counters[name] = max(self.counters.get(name, value), value)
