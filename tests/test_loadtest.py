"""Tests for the loadtest harness (repro.service.loadtest).

The throughput acceptance bars (keep-alive vs baseline, replica scaling)
live in ``benchmarks/test_bench_loadtest.py`` and
``benchmarks/test_bench_replicas.py``; this file covers the harness itself:
workload generation/recording, open-loop arrival schedules (seeded Poisson
and recorded timestamped traces), the statistics (including the small-``n``
percentile clamp), result identity with direct ``solve_many``, the
bench-JSON schema, and the ``repro loadtest`` CLI with its exit-code
contract (1 = could not start, 2 = ran but produced nothing usable).
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Objective, solve_many
from repro.exceptions import SpecificationError
from repro.service import (
    BackgroundServer,
    ServiceConfig,
    generate_workload,
    load_trace,
    load_workload,
    poisson_schedule,
    run_loadtest,
)
from repro.service.loadtest import (
    BENCH_JSON_SCHEMA,
    _percentile,
    _percentile_is_clamped,
)


class TestWorkloads:
    def test_generated_workload_shares_one_network(self):
        instances = generate_workload(6, n_modules=4, n_nodes=8, n_links=16,
                                      seed=7)
        assert len(instances) == 6
        assert len({id(inst.network) for inst in instances}) == 1
        assert len({inst.name for inst in instances}) == 6

    def test_generated_workload_is_deterministic(self):
        first = generate_workload(3, n_modules=4, n_nodes=8, n_links=16,
                                  seed=7)
        second = generate_workload(3, n_modules=4, n_nodes=8, n_links=16,
                                   seed=7)
        for a, b in zip(first, second):
            assert a.to_dict() == b.to_dict()

    def test_generated_workload_rejects_bad_count(self):
        with pytest.raises(SpecificationError, match="count"):
            generate_workload(0)

    def test_recorded_workload_roundtrip(self, tmp_path):
        instances = generate_workload(3, n_modules=4, n_nodes=8, n_links=16,
                                      seed=7)
        path = tmp_path / "workload.jsonl"
        path.write_text(
            "\n".join(json.dumps(inst.to_dict()) for inst in instances)
            + "\n\n", encoding="utf-8")  # trailing blank line is tolerated
        again = load_workload(path)
        assert [a.to_dict() for a in again] == [i.to_dict() for i in instances]

    def test_recorded_workload_bad_line_is_located(self, tmp_path):
        path = tmp_path / "workload.jsonl"
        path.write_text('{"not": "an instance"}\n', encoding="utf-8")
        with pytest.raises(SpecificationError, match="workload.jsonl:1"):
            load_workload(path)

    def test_recorded_workload_missing_file(self, tmp_path):
        with pytest.raises(SpecificationError, match="cannot read"):
            load_workload(tmp_path / "nope.jsonl")


class TestArrivalSchedule:
    """The open-loop Poisson scheduler and recorded-trace replay."""

    @given(seed=st.integers(0, 2**31), rate=st.floats(1.0, 500.0),
           duration=st.floats(0.1, 5.0))
    @settings(max_examples=50, deadline=None)
    def test_same_seed_reproduces_the_schedule(self, seed, rate, duration):
        first = poisson_schedule(rate, duration, seed=seed)
        second = poisson_schedule(rate, duration, seed=seed)
        assert first == second  # bit-identical, not approximately equal

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=50, deadline=None)
    def test_offsets_are_increasing_and_in_window(self, seed):
        offsets = poisson_schedule(50.0, 2.0, seed=seed)
        assert all(0.0 < offset < 2.0 for offset in offsets)
        assert all(b > a for a, b in zip(offsets, offsets[1:]))

    def test_mean_interarrival_matches_rate(self):
        """At n ~ 4000 the sample mean gap is within a few std-errors of
        1/rate (std-error of the mean gap = (1/rate)/sqrt(n))."""
        rate = 500.0
        offsets = poisson_schedule(rate, 8.0, seed=123)
        gaps = [b - a for a, b in zip([0.0] + offsets[:-1], offsets)]
        assert len(gaps) > 3000
        mean_gap = sum(gaps) / len(gaps)
        tolerance = 5.0 * (1.0 / rate) / math.sqrt(len(gaps))
        assert abs(mean_gap - 1.0 / rate) < tolerance

    def test_rejects_bad_parameters(self):
        with pytest.raises(SpecificationError, match="rate"):
            poisson_schedule(0.0, 1.0)
        with pytest.raises(SpecificationError, match="rate"):
            poisson_schedule(float("nan"), 1.0)
        with pytest.raises(SpecificationError, match="duration"):
            poisson_schedule(10.0, 0.0)


class TestTraceReplay:
    def _write_trace(self, path, entries):
        path.write_text("\n".join(json.dumps(e) for e in entries) + "\n",
                        encoding="utf-8")

    def test_trace_is_sorted_by_timestamp_stably(self, tmp_path):
        instances = generate_workload(4, n_modules=4, n_nodes=8, n_links=16,
                                      seed=7)
        path = tmp_path / "trace.jsonl"
        # Out of order, with a timestamp tie: the tie must keep file order.
        self._write_trace(path, [
            {"t": 0.5, "instance": instances[0].to_dict()},
            {"t": 0.1, "instance": instances[1].to_dict()},
            {"t": 0.1, "instance": instances[2].to_dict()},
            {"timestamp": 0.0, "instance": instances[3].to_dict()},  # alias
        ])
        trace = load_trace(path)
        assert [stamp for stamp, _inst in trace] == [0.0, 0.1, 0.1, 0.5]
        assert [inst.name for _stamp, inst in trace] == [
            instances[3].name, instances[1].name, instances[2].name,
            instances[0].name]

    @pytest.mark.parametrize("line,needle", [
        ('not json', "bad trace JSON"),
        ('[1, 2]', "must be an object"),
        ('{"instance": {}}', "needs a finite non-negative 't'"),
        ('{"t": -1.0, "instance": {}}', "needs a finite non-negative 't'"),
        ('{"t": true, "instance": {}}', "needs a finite non-negative 't'"),
        ('{"t": "NaN", "instance": {}}', "needs a finite non-negative 't'"),
        ('{"t": 0.5}', "needs an 'instance' object"),
        ('{"t": 0.5, "instance": {"bogus": 1}}', "bad instance payload"),
    ])
    def test_bad_entries_are_line_located(self, tmp_path, line, needle):
        instances = generate_workload(1, n_modules=4, n_nodes=8, n_links=16,
                                      seed=7)
        path = tmp_path / "trace.jsonl"
        good = json.dumps({"t": 0.0, "instance": instances[0].to_dict()})
        path.write_text(good + "\n" + line + "\n", encoding="utf-8")
        with pytest.raises(SpecificationError, match="trace.jsonl:2") as exc:
            load_trace(path)
        assert needle in str(exc.value)

    def test_empty_trace_rejected(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("\n\n", encoding="utf-8")
        with pytest.raises(SpecificationError, match="no entries"):
            load_trace(path)

    def test_missing_trace_file(self, tmp_path):
        with pytest.raises(SpecificationError, match="cannot read"):
            load_trace(tmp_path / "nope.jsonl")


class TestPercentile:
    def test_edges_and_interpolation(self):
        assert _percentile([], 50.0) == 0.0
        assert _percentile([3.0], 99.0) == 3.0
        values = [1.0, 2.0, 3.0, 4.0]
        assert _percentile(values, 0.0) == 1.0
        assert _percentile(values, 100.0) == 4.0
        assert _percentile(values, 50.0) == pytest.approx(2.5)

    def test_small_samples_clamp_high_percentiles_to_max(self):
        """p99 of a dozen requests is just the max; report it as exactly
        that instead of interpolating a fictional tail."""
        values = [float(i) for i in range(50)]
        assert _percentile_is_clamped(50, 99.0)
        assert _percentile(values, 99.0) == values[-1]
        # p50 has plenty of resolution at n=50 and still interpolates.
        assert not _percentile_is_clamped(50, 50.0)
        assert _percentile(values, 50.0) == pytest.approx(24.5)

    def test_clamp_boundary_is_n_times_tail_mass(self):
        # n * (100 - q) < 100 is the rule: p99 needs n >= 100.
        assert _percentile_is_clamped(99, 99.0)
        assert not _percentile_is_clamped(100, 99.0)
        large = [float(i) for i in range(200)]
        assert _percentile(large, 99.0) < large[-1]


class TestRunLoadtest:
    def test_smoke_and_result_identity_with_solve_many(self):
        """A short run completes without errors, reports server-side flush
        deltas, and — the wire contract — every kept response is identical
        to the direct solve_many answer for that instance."""
        instances = generate_workload(8, n_modules=4, n_nodes=8, n_links=16,
                                      seed=7)
        with BackgroundServer(ServiceConfig()) as server:
            result = run_loadtest(host="127.0.0.1", port=server.port,
                                  clients=2, duration_s=0.4,
                                  instances=instances, keep_responses=True)
        assert result.requests_total > 0
        assert result.errors_total == 0
        assert result.throughput_rps > 0
        assert result.latency_p99_ms >= result.latency_p50_ms >= 0
        assert result.mean_group_size >= 1.0
        assert result.server["responses"] >= result.requests_total
        assert result.server["flushes"] >= 1
        # Admission deltas are always reported; zero without --admission-control.
        assert result.server["admitted"] == 0
        assert result.server["rejected"] == 0
        assert result.responses, "keep_responses=True must record responses"

        direct = solve_many(instances, solver="elpc-tensor",
                            objective=Objective.MIN_DELAY)
        for instance_index, response in result.responses:
            item = direct.items[instance_index]
            assert response["ok"]
            assert response["name"] == item.name
            assert response["mapping"]["groups"] == [
                list(group) for group in item.mapping.groups]
            assert response["mapping"]["path"] == list(item.mapping.path)
            assert response["mapping"]["delay_ms"] == item.mapping.delay_ms

    def test_admission_deltas_reported(self):
        """Against an admission-control server the report carries the
        admitted/rejected healthz deltas and the table gains an admission
        line.  Admitted tenants hold their capacity for the service
        lifetime, so a sustained loadtest inevitably drains the ledger and
        later requests bounce — those rejections surface as ``ok: false``
        errors AND as the rejected delta."""
        instances = generate_workload(6, n_modules=4, n_nodes=8, n_links=16,
                                      seed=7)
        with BackgroundServer(ServiceConfig(admission_control=True)) as server:
            result = run_loadtest(host="127.0.0.1", port=server.port,
                                  clients=2, duration_s=0.4,
                                  instances=instances)
        assert result.server["admitted"] > 0
        assert result.server["admitted"] + result.server["rejected"] \
            >= result.requests_total
        # Every capacity rejection is an ok:false response.
        assert result.errors_total >= result.server["rejected"] > 0
        assert "admission" in result.table_text()
        metrics = result.to_bench_json()["metrics"]["loadtest/request_latency"]
        assert metrics["extra:admitted"] == result.server["admitted"]
        assert metrics["extra:rejected"] == result.server["rejected"]

    def test_parameter_validation(self):
        with pytest.raises(SpecificationError, match="clients"):
            run_loadtest(clients=0)
        with pytest.raises(SpecificationError, match="duration"):
            run_loadtest(duration_s=0.0)
        with pytest.raises(SpecificationError, match="not both"):
            run_loadtest(arrival_rate=10.0, trace=[])
        with pytest.raises(SpecificationError, match="max_connections"):
            run_loadtest(arrival_rate=10.0, max_connections=0)
        with pytest.raises(SpecificationError, match="empty"):
            run_loadtest(trace=[])

    def test_open_loop_poisson_run(self):
        """Open-loop mode answers every scheduled arrival, records schedule
        lag, attributes responses to replicas, and stays deterministic in
        its offered schedule."""
        instances = generate_workload(6, n_modules=4, n_nodes=8, n_links=16,
                                      seed=7)
        with BackgroundServer(ServiceConfig()) as server:
            result = run_loadtest(host="127.0.0.1", port=server.port,
                                  duration_s=0.5, instances=instances,
                                  arrival_rate=60.0, max_connections=4,
                                  seed=11, keep_responses=True)
        expected = poisson_schedule(60.0, 0.5, seed=11)
        assert result.mode == "open"
        assert result.scheduled_total == len(expected)
        assert result.requests_total == len(expected)  # none dropped
        assert result.errors_total == 0
        assert result.offered_rps == pytest.approx(len(expected) / 0.5)
        assert result.clients == min(4, len(expected))
        assert result.lag_ms_max >= result.lag_ms_mean >= 0.0
        # A single in-process server is replica 0 for every response.
        assert result.per_replica == {"0": result.requests_total}
        table = result.table_text()
        assert "open-loop" in table and "schedule lag" in table
        metric = result.to_bench_json()["metrics"]["loadtest/request_latency"]
        assert metric["extra:open_loop"] == 1
        assert metric["extra:offered_rps"] == pytest.approx(
            result.offered_rps, abs=0.01)
        assert metric["extra:replicas_observed"] == 1

    def test_open_loop_trace_run_preserves_instance_mapping(self, tmp_path):
        """Trace replay solves each entry's own instance (responses match
        the trace's instance at that index, not a round-robin workload)."""
        instances = generate_workload(3, n_modules=4, n_nodes=8, n_links=16,
                                      seed=7)
        path = tmp_path / "trace.jsonl"
        entries = [{"t": 0.05 * i, "instance": inst.to_dict()}
                   for i, inst in enumerate(instances)]
        path.write_text("\n".join(json.dumps(e) for e in entries) + "\n",
                        encoding="utf-8")
        trace = load_trace(path)
        with BackgroundServer(ServiceConfig()) as server:
            result = run_loadtest(host="127.0.0.1", port=server.port,
                                  duration_s=1.0, trace=trace,
                                  max_connections=2, keep_responses=True)
        assert result.mode == "open"
        assert result.requests_total == len(instances)
        assert result.errors_total == 0
        names = {index: response["name"]
                 for index, response in result.responses}
        assert names == {i: inst.name for i, inst in enumerate(instances)}

    def test_bench_json_schema(self):
        instances = generate_workload(4, n_modules=4, n_nodes=8, n_links=16,
                                      seed=7)
        with BackgroundServer(ServiceConfig()) as server:
            result = run_loadtest(host="127.0.0.1", port=server.port,
                                  clients=2, duration_s=0.3,
                                  instances=instances)
        payload = result.to_bench_json(sha="abc123")
        assert payload["schema"] == BENCH_JSON_SCHEMA
        assert payload["sha"] == "abc123"
        metric = payload["metrics"]["loadtest/request_latency"]
        assert metric["mean_s"] > 0
        assert metric["rounds"] == result.requests_total
        assert metric["extra:throughput_rps"] > 0
        assert metric["extra:clients"] == 2
        # table_text renders without raising and mentions the headline stats
        table = result.table_text()
        assert "throughput" in table and "p99" in table


class TestLoadtestCli:
    def test_cli_end_to_end_with_emit_json(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "loadtest.json"
        with BackgroundServer(ServiceConfig()) as server:
            code = main(["loadtest", "--port", str(server.port),
                         "--clients", "2", "--duration", "0.3",
                         "--instances", "4", "--modules", "4",
                         "--nodes", "8", "--links", "16",
                         "--emit-json", str(out)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "closed-loop clients" in captured
        payload = json.loads(out.read_text())
        assert payload["schema"] == BENCH_JSON_SCHEMA
        assert "loadtest/request_latency" in payload["metrics"]

    def test_cli_exit_1_when_no_server(self, capsys):
        from repro.cli import main

        code = main(["loadtest", "--port", "1", "--duration", "0.2",
                     "--clients", "1", "--instances", "2",
                     "--modules", "4", "--nodes", "8", "--links", "16"])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err
        # Unreachable is named as such, distinguishable from a server that
        # answered but failed every request (exit 2).
        assert "server unreachable" in err

    def test_cli_exit_2_when_every_request_fails(self, capsys):
        """A reachable server that rejects every solve (unknown solver) is a
        different failure class than an unreachable one: exit 2, not 1."""
        from repro.cli import main

        with BackgroundServer(ServiceConfig()) as server:
            code = main(["loadtest", "--port", str(server.port),
                         "--clients", "1", "--duration", "0.3",
                         "--instances", "2", "--modules", "4",
                         "--nodes", "8", "--links", "16",
                         "--solver", "no-such-solver", "--no-warmup"])
        assert code == 2
        captured = capsys.readouterr()
        assert "every request failed" in captured.err
        assert "loadtest:" in captured.out  # the summary still printed

    def test_cli_open_loop_arrival_rate(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "open.json"
        with BackgroundServer(ServiceConfig()) as server:
            code = main(["loadtest", "--port", str(server.port),
                         "--arrival-rate", "40", "--duration", "0.5",
                         "--max-connections", "4", "--instances", "4",
                         "--modules", "4", "--nodes", "8", "--links", "16",
                         "--seed", "3", "--emit-json", str(out)])
        assert code == 0
        assert "open-loop" in capsys.readouterr().out
        metric = json.loads(out.read_text())["metrics"][
            "loadtest/request_latency"]
        assert metric["extra:open_loop"] == 1
        assert metric["rounds"] == len(poisson_schedule(40.0, 0.5, seed=3))

    def test_cli_open_loop_trace(self, tmp_path, capsys):
        from repro.cli import main

        instances = generate_workload(3, n_modules=4, n_nodes=8, n_links=16,
                                      seed=7)
        path = tmp_path / "trace.jsonl"
        path.write_text(
            "\n".join(json.dumps({"t": 0.05 * i, "instance": inst.to_dict()})
                      for i, inst in enumerate(instances)) + "\n",
            encoding="utf-8")
        with BackgroundServer(ServiceConfig()) as server:
            code = main(["loadtest", "--port", str(server.port),
                         "--trace", str(path)])
        assert code == 0
        assert "3 scheduled arrivals" in capsys.readouterr().out

    def test_cli_rejects_rate_plus_trace(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "trace.jsonl"
        path.write_text("{}\n", encoding="utf-8")
        code = main(["loadtest", "--arrival-rate", "10",
                     "--trace", str(path)])
        assert code == 1
        assert "mutually exclusive" in capsys.readouterr().err

    def test_cli_bad_trace_exit_1(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "trace.jsonl"
        path.write_text("not json\n", encoding="utf-8")
        code = main(["loadtest", "--trace", str(path), "--port", "1"])
        assert code == 1
        assert "trace.jsonl:1" in capsys.readouterr().err

    def test_cli_replay_workload(self, tmp_path):
        from repro.cli import main

        instances = generate_workload(3, n_modules=4, n_nodes=8, n_links=16,
                                      seed=7)
        path = tmp_path / "recorded.jsonl"
        path.write_text(
            "\n".join(json.dumps(inst.to_dict()) for inst in instances),
            encoding="utf-8")
        with BackgroundServer(ServiceConfig()) as server:
            code = main(["loadtest", "--port", str(server.port),
                         "--clients", "2", "--duration", "0.3",
                         "--replay", str(path)])
        assert code == 0
