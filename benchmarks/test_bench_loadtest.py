"""Benchmark: the keep-alive continuous-batching service under load.

``repro loadtest`` drives a real ``repro serve`` subprocess end to end with
32 concurrent closed-loop keep-alive clients.  The timed metric is a fixed
burst of keep-alive requests (gated against the recorded baseline by
``check_regression.py``); absolute throughput and latency are recorded next
to it, and the per-layer server counters from ``/healthz`` must show the
serving layers doing their job:

* *transport* — about one connection per client (keep-alive reuse);
* *dispatcher* — flushes really coalesce under load (mean group size > 1)
  and some flushes dispatch straight off a busy executor with no window;
* *results* — every solve response is identical to a direct
  :func:`repro.core.batch.solve_many` of the same instances.

The workload is deliberately *transport-dominated* (short pipelines over a
small shared network).  Solver-bound service throughput is covered by
``test_bench_service.py``.  The server runs as a subprocess so the 32 client
threads and the server event loop do not share one GIL; the load run takes
the best of two trials.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core import Objective, solve_many
from repro.service import ServiceClient, generate_workload, run_loadtest

_CLIENTS = 32
_DURATION_S = 1.2
_TRIALS = 2
#: Transport-dominated workload shape (see module docstring).
_WORKLOAD = dict(n_modules=4, n_nodes=8, n_links=16, seed=5)
_WORKLOAD_SIZE = 16


def _spawn_server():
    """A real ``repro serve`` subprocess; returns ``(process, port)``."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-c",
         "from repro.cli import main; "
         "raise SystemExit(main(['serve', '--port', '0']))"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env, text=True)
    announce = proc.stdout.readline()
    match = re.search(r"listening on 127\.0\.0\.1:(\d+)", announce)
    assert match, f"no announce line from repro serve, got {announce!r}"
    port = int(match.group(1))
    ServiceClient(port=port).wait_ready(timeout=30)
    return proc, port


def _stop_server(proc):
    proc.send_signal(signal.SIGINT)
    proc.wait(timeout=30)


def _best_run(port, instances):
    best = None
    for _ in range(_TRIALS):
        result = run_loadtest(host="127.0.0.1", port=port, clients=_CLIENTS,
                              duration_s=_DURATION_S, instances=instances)
        assert result.errors_total == 0, (
            f"loadtest errors: {result.errors_total}/{result.requests_total}")
        if best is None or result.throughput_rps > best.throughput_rps:
            best = result
    return best


@pytest.fixture(scope="module")
def loadtest_measurement():
    """The load run (best of {_TRIALS} trials) plus one short
    response-recording run for the identity assertions."""
    instances = generate_workload(_WORKLOAD_SIZE, **_WORKLOAD)

    proc, port = _spawn_server()
    try:
        measured = _best_run(port, instances)
        identity = run_loadtest(host="127.0.0.1", port=port, clients=8,
                                duration_s=0.5, instances=instances,
                                keep_responses=True)
    finally:
        _stop_server(proc)
    return instances, measured, identity


@pytest.mark.benchmark(group="loadtest")
def test_loadtest_keep_alive_continuous_batching(benchmark,
                                                 loadtest_measurement):
    """Timed metric: a fixed burst of keep-alive requests through the
    continuous-batching server, plus the per-layer server counters."""
    instances, measured, _identity = loadtest_measurement

    proc, port = _spawn_server()
    try:
        client = ServiceClient(port=port)
        burst = (instances * 8)[:128]
        with ThreadPoolExecutor(max_workers=_CLIENTS) as pool:
            list(pool.map(client.solve, burst))  # warm-up + network refs

            def keep_alive_burst():
                return list(pool.map(client.solve, burst))

            responses = benchmark(keep_alive_burst)
        client.close()
    finally:
        _stop_server(proc)
    assert all(r["ok"] for r in responses)

    server = measured.server
    benchmark.extra_info["throughput_rps"] = round(measured.throughput_rps, 1)
    benchmark.extra_info["p50_ms"] = round(measured.latency_p50_ms, 3)
    benchmark.extra_info["p99_ms"] = round(measured.latency_p99_ms, 3)
    benchmark.extra_info["mean_flush_size"] = round(
        server["mean_flush_size"], 2)
    benchmark.extra_info["queue_wait_ms_mean"] = round(
        server["queue_wait_ms_mean"], 3)
    benchmark.extra_info["clients"] = _CLIENTS

    # Transport: keep-alive clients hold about one connection each.
    assert server["connections"] <= _CLIENTS + 4
    # Dispatcher: the continuous-batching path really batched under load.
    assert measured.mean_group_size > 1.0
    assert server["busy_flushes"] > 0
    assert measured.requests_total > 0
    assert 0.0 < measured.latency_p50_ms <= measured.latency_p99_ms


def test_loadtest_responses_identical_to_solve_many(loadtest_measurement):
    """Every response recorded under concurrent load equals the direct
    ``solve_many`` answer for its instance (JSON floats round-trip
    repr-exactly, so == is exact)."""
    instances, _measured, identity = loadtest_measurement
    assert identity.responses, "identity run recorded no responses"
    direct = solve_many(instances, solver="elpc-tensor",
                        objective=Objective.MIN_DELAY)
    assert direct.n_solved == len(instances)
    for instance_index, response in identity.responses:
        item = direct.items[instance_index]
        assert response["ok"]
        assert response["name"] == item.name
        assert response["mapping"]["delay_ms"] == item.mapping.delay_ms
        assert response["mapping"]["bottleneck_ms"] == item.mapping.bottleneck_ms
        assert response["mapping"]["groups"] == [
            list(group) for group in item.mapping.groups]
        assert response["mapping"]["path"] == list(item.mapping.path)
