"""The benchmark's own arithmetic: percentile rules, seeded streams, spans.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import benchlib  # noqa: E402
import streams  # noqa: E402


# --------------------------------------------------------------------------- #
# Percentiles and sample counts
# --------------------------------------------------------------------------- #
def test_samples_beyond_counts_the_tail():
    assert benchlib.samples_beyond(1000, 99) == 10
    assert benchlib.samples_beyond(999, 99) == 9
    assert benchlib.samples_beyond(20, 50) == 10
    assert benchlib.samples_beyond(100, 90) == 10


def test_percentile_needs_ten_samples_beyond_it():
    assert benchlib.percentile(list(range(999)), 99) is None
    assert benchlib.percentile(list(range(1000)), 99) is not None
    assert benchlib.percentile(list(range(19)), 50) is None
    assert benchlib.percentile(list(range(20)), 50) is not None
    assert benchlib.percentile([], 50) is None


def test_percentile_interpolates_linearly_on_unsorted_input():
    values = list(range(100, 0, -1))  # 1..100, reversed
    assert benchlib.percentile(values, 50) == pytest.approx(50.5)
    assert benchlib.percentile(values, 90) == pytest.approx(90.1)


def test_speed_probe_divides_by_the_nominal_loop_time(monkeypatch):
    readings = iter([0.007, 0.0035])
    monkeypatch.setattr(benchlib, "reference_loop_s", lambda: next(readings))
    probe = benchlib.SpeedProbe(interval_s=3600)
    nominal = benchlib.REFERENCE_NOMINAL_S
    assert probe.slowdown() == pytest.approx(0.007 / nominal)
    # Within the interval the last reading is reused, not re-measured.
    assert probe.slowdown() == pytest.approx(0.007 / nominal)
    probe.interval_s = 0.0
    assert probe.slowdown() == pytest.approx(0.0035 / nominal)
    assert probe.samples == [0.007, 0.0035]


def test_quartile_spread_matches_statistics_quantiles():
    # quantiles(n=4) of 1..9 (exclusive method) are 2.5, 5, 7.5.
    assert benchlib.quartile_spread(range(1, 10)) == pytest.approx(5 / 5)
    assert benchlib.quartile_spread([10.0] * 8) == 0.0


# --------------------------------------------------------------------------- #
# Seeds: the same seed gives the same schedule and stream
# --------------------------------------------------------------------------- #
def test_poisson_schedule_is_a_function_of_the_seed():
    first = benchlib.poisson_schedule(300.0, 5.0, seed=7)
    assert first == benchlib.poisson_schedule(300.0, 5.0, seed=7)
    assert first != benchlib.poisson_schedule(300.0, 5.0, seed=8)
    assert first == sorted(first)
    assert 0.0 <= first[0] and first[-1] < 5.0
    assert 1300 < len(first) < 1700  # 1500 expected


def test_poisson_schedule_rejects_nonpositive_rates():
    with pytest.raises(ValueError):
        benchlib.poisson_schedule(0.0, 5.0, seed=1)


def test_sub_seeds_are_stable_and_distinct():
    assert streams.sub_seed(3, "network") == streams.sub_seed(3, "network")
    assert streams.sub_seed(3, "network") != streams.sub_seed(4, "network")
    assert streams.sub_seed(3, "network") != streams.sub_seed(3, "requests")


@pytest.mark.parametrize("spec", [streams.SERVE_DISTINCT, streams.SERVE_DRIFT],
                         ids=lambda spec: spec.name)
def test_serve_stream_is_a_function_of_the_seed(spec):
    a = streams.ServeStream.build(spec, 3)
    b = streams.ServeStream.build(spec, 3)
    other = streams.ServeStream.build(spec, 4)
    assert a.first_body == b.first_body and a.ref == b.ref
    bodies = [a.body(a.body_index(op), a.ref) for op in range(12)]
    assert bodies == [b.body(b.body_index(op), b.ref) for op in range(12)]
    assert bodies[0] != other.body(0, other.ref)
    assert [a.is_delta(op) for op in range(100)] == \
        [b.is_delta(op) for op in range(100)]


def test_distinct_stream_never_repeats_a_body():
    stream = streams.ServeStream.build(streams.SERVE_DISTINCT, 5)
    bodies = [stream.body(stream.body_index(op), stream.ref)
              for op in range(300)]
    assert len(set(bodies)) == len(bodies)


def test_drift_stream_repeats_its_tenant_pool_with_the_current_ref():
    stream = streams.ServeStream.build(streams.SERVE_DRIFT, 5)
    pool = streams.SERVE_DRIFT.pool
    assert stream.body_index(pool + 3) == 3
    assert stream.body(3, "abc@7") != stream.body(3, "abc@8")
    assert sum(stream.is_delta(op) for op in range(500)) == 10


def test_delta_sequence_is_seeded_and_mirrors_its_edits():
    stream = streams.ServeStream.build(streams.SERVE_DRIFT, 2)
    a = streams.DeltaSequence(stream.network, 2)
    b = streams.DeltaSequence(stream.network, 2)
    edits = [a.next_edits() for _ in range(20)]
    assert edits == [b.next_edits() for _ in range(20)]
    last = edits[-1][0]
    assert a.mirror.bandwidth(last["u"], last["v"]) == last["value"]
    # The served network itself is never edited by the generator.
    assert a.mirror.to_dict() != stream.network.to_dict()


def test_batch_stream_and_churn_are_functions_of_the_seed():
    a, b = streams.BatchStream.build(9), streams.BatchStream.build(9)
    assert a.payloads == b.payloads
    assert [len(group) for group in a.problems] == \
        [count for _n, _l, count in streams.BATCH_GROUPS]
    nets_a = [g[0].network for g in a.fresh_groups()]
    nets_b = [g[0].network for g in b.fresh_groups()]
    steps_a = streams.ChurnSequence(nets_a, 9).step_edits()
    assert steps_a == streams.ChurnSequence(nets_b, 9).step_edits()
    for (nodes, links, _count), edits in zip(streams.BATCH_GROUPS, steps_a):
        assert len(edits) == max(1, round(streams.CHURN_LINK_SHARE * links))


# --------------------------------------------------------------------------- #
# Spans
# --------------------------------------------------------------------------- #
def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        ("parent", 0, 100, -1, 1),
        ("a", 10, 30, 0, 1),
        ("b", 20, 50, 0, 1),      # overlaps a: counted once
        ("c", 90, 120, 0, 1),     # sticks out of the parent: clipped
        ("grandchild", 12, 18, 1, 1),
    ]
    assert benchlib.self_times_ns(spans) == [100 - 40 - 10, 20 - 6, 30, 30, 6]


def test_self_time_by_name_sums_per_name():
    spans = [("x", 0, 10, -1, 1), ("y", 2, 4, 0, 1),
             ("x", 20, 25, -1, 2)]
    assert benchlib.self_time_by_name(spans) == {"x": (2, 13), "y": (1, 2)}


def test_tracer_records_parents_and_request_ids():
    tracer = benchlib.Tracer()
    with tracer.span("outer", 7):
        with tracer.span("inner", 7):
            pass
    with tracer.span("next", 8):
        pass
    names = [(name, parent, rid) for name, _s, _e, parent, rid
             in tracer.spans]
    assert names == [("outer", -1, 7), ("inner", 0, 7), ("next", -1, 8)]
    for _name, start, end, _parent, _rid in tracer.spans:
        assert end >= start > 0
    own = benchlib.self_times_ns(tracer.spans)
    outer = tracer.spans[0]
    assert own[0] + own[1] == outer[2] - outer[1]


def test_null_tracer_records_nothing():
    tracer = benchlib.NullTracer()
    with tracer.span("x", 1):
        pass
    assert tracer.spans == []
