"""Arithmetic of the benchmark: percentiles, schedules, host speed, spans.

Pure functions and one small span recorder, kept apart from the code that
drives the system so that ``test_perfbench_arith.py`` can pin them without a
server or a solver.

Why a speed probe: on a small shared host the same fixed Python loop ran
up to 1.6x slower from one minute to the next, in CPU time as well as wall
time, and in-process solve throughput followed it (cold passes of one
seed timed over 100 s: quartile spread 0.33).  Timing that loop between
measurements and dividing it out brought the same series to 0.07.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from typing import Dict, List, Optional, Sequence, Tuple

#: A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly above the ``q``-th percentile."""
    return int(math.floor(n * (100.0 - q) / 100.0 + 1e-9))


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-th percentile (linear interpolation), or ``None`` when fewer
    than :data:`MIN_BEYOND` samples lie beyond it (p50 needs 20 samples,
    p99 needs 1,000)."""
    n = len(values)
    if n == 0 or samples_beyond(n, q) < MIN_BEYOND:
        return None
    ordered = sorted(values)
    position = (n - 1) * q / 100.0
    lower = int(math.floor(position))
    upper = min(lower + 1, n - 1)
    return ordered[lower] + (ordered[upper] - ordered[lower]) * (position - lower)


def poisson_schedule(rate: float, duration_s: float, seed: int) -> List[float]:
    """Seeded Poisson arrival offsets (seconds) in ``[0, duration_s)``."""
    if rate <= 0 or duration_s <= 0:
        raise ValueError(f"rate and duration must be positive, got "
                         f"{rate!r}, {duration_s!r}")
    rng = random.Random(seed)
    offsets: List[float] = []
    t = rng.expovariate(rate)
    while t < duration_s:
        offsets.append(t)
        t += rng.expovariate(rate)
    return offsets


#: Seconds the reference loop takes on the nominal host.  Normalised
#: metrics read as if every run had found the host at this speed; the value
#: only sets the scale (this host's fast phase).
REFERENCE_NOMINAL_S = 0.0035


def reference_loop_s(repeats: int = 3) -> float:
    """Median time of a fixed pure-Python loop: the host's current speed.

    It touches no code under test, so a change to the program cannot move
    it; a busy neighbour or a slower clock moves it and the program alike.
    """
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for i in range(50_000):
            total += i * i % 7
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


class SpeedProbe:
    """Re-measures :func:`reference_loop_s` at most every ``interval_s``;
    :meth:`slowdown` is the current reference time over the nominal one
    (2.0 means the host runs at half speed)."""

    def __init__(self, interval_s: float = 0.25) -> None:
        self.interval_s = interval_s
        self.samples: List[float] = []
        self._at = -math.inf

    def slowdown(self) -> float:
        now = time.perf_counter()
        if now - self._at >= self.interval_s:
            self.samples.append(reference_loop_s())
            self._at = time.perf_counter()
        return self.samples[-1] / REFERENCE_NOMINAL_S


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, the run-to-run spread the bounds are judged by
    (0 for a constant series, even a constant 0)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    if q3 == q1:
        return 0.0
    return (q3 - q1) / median


# --------------------------------------------------------------------------- #
# Spans
# --------------------------------------------------------------------------- #
#: One recorded span: (name, start_ns, end_ns, parent index or -1, request id).
Span = Tuple[str, int, int, int, int]


class Tracer:
    """Records spans in memory: name, start, end, parent and request id.

    ``with tracer.span("wire.decode", request_id): ...`` nests: a span
    opened inside another names it as parent.  Nothing is written until the
    caller reads :attr:`spans` after the run.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def span(self, name: str, request_id: int) -> "_OpenSpan":
        return _OpenSpan(self, name, request_id)


class _OpenSpan:
    __slots__ = ("tracer", "name", "request_id", "index", "start")

    def __init__(self, tracer: Tracer, name: str, request_id: int) -> None:
        self.tracer = tracer
        self.name = name
        self.request_id = request_id

    def __enter__(self) -> "_OpenSpan":
        tracer = self.tracer
        self.index = len(tracer.spans)
        parent = tracer._stack[-1] if tracer._stack else -1
        tracer.spans.append((self.name, 0, 0, parent, self.request_id))
        tracer._stack.append(self.index)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc_info) -> None:
        end = time.perf_counter_ns()
        tracer = self.tracer
        tracer._stack.pop()
        name, _start, _end, parent, request_id = tracer.spans[self.index]
        tracer.spans[self.index] = (name, self.start, end, parent, request_id)


class NullTracer:
    """Same interface as :class:`Tracer`, records nothing (untraced runs)."""

    spans: List[Span] = []

    def span(self, name: str, request_id: int) -> "_NullSpan":
        return _NULL_SPAN


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_SPAN = _NullSpan()


def _covered_ns(intervals: List[Tuple[int, int]], start: int, end: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    covered = 0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def self_times_ns(spans: Sequence[Span]) -> List[int]:
    """Each span's duration minus the part of it its child spans cover."""
    children: Dict[int, List[Tuple[int, int]]] = {}
    for _name, start, end, parent, _rid in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (_name, start, end, _parent, _rid) in enumerate(spans):
        out.append((end - start)
                   - _covered_ns(children.get(index, []), start, end))
    return out


def self_time_by_name(spans: Sequence[Span]) -> Dict[str, Tuple[int, int]]:
    """``name -> (span count, total self time in ns)``."""
    totals: Dict[str, Tuple[int, int]] = {}
    for (name, *_rest), own in zip(spans, self_times_ns(spans)):
        count, total = totals.get(name, (0, 0))
        totals[name] = (count + 1, total + own)
    return totals
