"""Benchmark: fleet admission control on a pre-fork fleet.

The acceptance bar: routing every admission decision through the
supervisor's one admission book (one pipe round trip per flush partition
from each replica) must cost **at most 20% of fleet throughput** — a
2-replica fleet with ``--admission-control`` sustains >= 0.8x the
throughput of the same fleet without it.  The admission run uses a huge
capacity factor so every request is admitted: the measured cost is the
pipe protocol itself, not rejection short-circuits.

The second test is the correctness half of the bar: drive an oversubscribed
admission fleet, then replay exactly the mappings it admitted through
:func:`repro.placement.validate_placements` on a fresh private ledger with
the same budgets.  Zero overdraw means the replay commits cleanly and ends
with every node and link at <= 100% utilisation — if two replicas had ever
double-spent the same capacity, the replay would raise ``CapacityError``.

Like the other speedup benches, the wall-clock ratio assertion is skipped
under ``REPRO_SKIP_SPEEDUP_ASSERT=1`` and on single-core hosts; the
zero-overdraw, rejection-accounting and occupancy assertions always run.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import pytest

import repro
from repro import (
    CommunicationLink,
    ComputingModule,
    ComputingNode,
    EndToEndRequest,
    Objective,
    Pipeline,
    ProblemInstance,
    TransportNetwork,
)
from repro.placement import ClusterState, validate_placements
from repro.service import ServiceClient, generate_workload

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="pre-fork replicas need os.fork")

_REPLICAS = 2
_GENERATORS = 2          # concurrent loadtest subprocesses per measurement
_CLIENTS_PER_GEN = 8
_DURATION_S = 1.0
_TRIALS = 2
_WORKLOAD = dict(n_modules=4, n_nodes=8, n_links=16, seed=5)
_WORKLOAD_SIZE = 16
#: Admit-everything factor for the throughput A/B: the cost under test is
#: the admission pipe protocol, not capacity exhaustion.
_HUGE_FACTOR = "1e9"


def _env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _spawn_server(extra_args=()):
    proc = subprocess.Popen(
        [sys.executable, "-c",
         "import sys; from repro.cli import main; "
         "raise SystemExit(main(['serve', '--port', '0', '--max-wait-ms',"
         " '1'] + sys.argv[1:]))",
         *extra_args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=_env(),
        text=True)
    announce = proc.stdout.readline()
    match = re.search(r"listening on 127\.0\.0\.1:(\d+)", announce)
    assert match, f"no announce line from repro serve, got {announce!r}"
    port = int(match.group(1))
    ServiceClient(port=port).wait_ready(timeout=30)
    return proc, port


def _stop_server(proc):
    proc.send_signal(signal.SIGINT)
    proc.wait(timeout=60)


def _wait_fleet(port, replicas, timeout=30.0):
    with ServiceClient(port=port, timeout=30) as client:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            status = client.healthz()
            fleet = status.get("fleet")
            if fleet and fleet["alive"] == replicas:
                return status
            time.sleep(0.05)
    raise AssertionError(f"fleet never reached {replicas} alive replicas")


def _offered_throughput(port, tmp, tag):
    """Summed throughput of {_GENERATORS} concurrent ``repro loadtest``
    subprocess generators (separate processes so the client-side GIL cannot
    cap either side of the A/B)."""
    procs, outs = [], []
    for generator in range(_GENERATORS):
        out = tmp / f"{tag}-{generator}.json"
        outs.append(out)
        args = ["loadtest", "--port", str(port),
                "--clients", str(_CLIENTS_PER_GEN),
                "--duration", str(_DURATION_S),
                "--instances", str(_WORKLOAD_SIZE),
                "--modules", str(_WORKLOAD["n_modules"]),
                "--nodes", str(_WORKLOAD["n_nodes"]),
                "--links", str(_WORKLOAD["n_links"]),
                "--seed", str(_WORKLOAD["seed"]),
                "--emit-json", str(out)]
        procs.append(subprocess.Popen(
            [sys.executable, "-c",
             "import sys; from repro.cli import main; "
             "raise SystemExit(main(sys.argv[1:]))", *args],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=_env(),
            text=True))
    for proc in procs:
        assert proc.wait(timeout=180) == 0, proc.stderr.read()
    total_rps, errors = 0.0, 0
    for out in outs:
        metric = json.loads(out.read_text())["metrics"][
            "loadtest/request_latency"]
        total_rps += metric["extra:throughput_rps"]
        errors += metric["extra:errors"]
    assert errors == 0, f"{tag}: {errors} generator-side request errors"
    return total_rps


def _best_offered(port, tmp, tag):
    return max(_offered_throughput(port, tmp, f"{tag}-{trial}")
               for trial in range(_TRIALS))


# --------------------------------------------------------------------- #
# Throughput: fleet admission vs no admission
# --------------------------------------------------------------------- #

@pytest.fixture(scope="module")
def admission_measurement(tmp_path_factory):
    """Throughput of a {_REPLICAS}-replica fleet with and without
    admission control (best of {_TRIALS} trials each)."""
    tmp = tmp_path_factory.mktemp("bench-admission-fleet")
    ledger_proc, ledger_port = _spawn_server(
        ["--replicas", str(_REPLICAS), "--admission-control",
         "--admission-capacity-factor", _HUGE_FACTOR])
    plain_proc, plain_port = _spawn_server(["--replicas", str(_REPLICAS)])
    try:
        _wait_fleet(ledger_port, _REPLICAS)
        _wait_fleet(plain_port, _REPLICAS)
        ledger_rps = _best_offered(ledger_port, tmp, "ledger")
        plain_rps = _best_offered(plain_port, tmp, "plain")
        with ServiceClient(port=ledger_port, timeout=30) as client:
            health = client.healthz()
    finally:
        _stop_server(ledger_proc)
        _stop_server(plain_proc)
    return dict(ledger_rps=ledger_rps, plain_rps=plain_rps, health=health)


@pytest.mark.benchmark(group="admission-fleet")
def test_admission_fleet_throughput(benchmark, admission_measurement):
    """Timed metric: a keep-alive burst through a {_REPLICAS}-replica
    admission fleet, plus the >= 0.8x admission-vs-plain bar."""
    instances = generate_workload(_WORKLOAD_SIZE, **_WORKLOAD)
    proc, port = _spawn_server(
        ["--replicas", str(_REPLICAS), "--admission-control",
         "--admission-capacity-factor", _HUGE_FACTOR])
    try:
        _wait_fleet(port, _REPLICAS)
        client = ServiceClient(port=port)
        burst = (instances * 8)[:128]
        with ThreadPoolExecutor(max_workers=16) as pool:
            list(pool.map(client.solve, burst))  # warm-up + network refs

            def admission_burst():
                return list(pool.map(client.solve, burst))

            responses = benchmark(admission_burst)
        client.close()
    finally:
        _stop_server(proc)
    assert all(r["ok"] and r["admission"]["admitted"] for r in responses)

    health = admission_measurement["health"]
    fleet = health["fleet"]
    assert fleet["alive"] == _REPLICAS
    assert fleet["rejected_total"] == 0  # the A/B measured pure protocol cost
    assert fleet["admitted_total"] > 0
    assert health["admission_store"] == "shared"

    ledger_rps = admission_measurement["ledger_rps"]
    plain_rps = admission_measurement["plain_rps"]
    ratio = ledger_rps / plain_rps if plain_rps else float("inf")
    benchmark.extra_info["ledger_rps"] = round(ledger_rps, 1)
    benchmark.extra_info["plain_rps"] = round(plain_rps, 1)
    benchmark.extra_info["throughput_ratio"] = round(ratio, 2)
    benchmark.extra_info["replicas"] = _REPLICAS

    if os.environ.get("REPRO_SKIP_SPEEDUP_ASSERT") == "1":
        pytest.skip("speedup ratio assertions disabled via "
                    "REPRO_SKIP_SPEEDUP_ASSERT")
    if (os.cpu_count() or 1) < _REPLICAS:
        pytest.skip(f"host has {os.cpu_count()} CPUs; fleet measurement "
                    f"needs at least {_REPLICAS}")
    assert ratio >= 0.8, (
        f"fleet admission costs too much: {ratio:.2f}x the "
        f"no-admission fleet ({ledger_rps:.0f} vs {plain_rps:.0f} req/s); "
        "expected >= 0.8x")


# --------------------------------------------------------------------- #
# Zero overdraw: replay what the fleet admitted
# --------------------------------------------------------------------- #

def _two_node_instance(index):
    network = TransportNetwork(
        nodes=[ComputingNode(node_id=0, processing_power=100.0),
               ComputingNode(node_id=1, processing_power=100.0)],
        links=[CommunicationLink(start_node=0, end_node=1,
                                 bandwidth_mbps=100.0, min_delay_ms=1.0)],
        name="overdraw-two-node")
    pipeline = Pipeline(modules=(
        ComputingModule(module_id=0, complexity=0.0, input_bytes=0.0,
                        output_bytes=1000.0),
        ComputingModule(module_id=1, complexity=3.0, input_bytes=1000.0,
                        output_bytes=500.0),
        ComputingModule(module_id=2, complexity=2.0, input_bytes=500.0,
                        output_bytes=0.0)))
    return ProblemInstance(name=f"overdraw-{index}", pipeline=pipeline,
                           network=network,
                           request=EndToEndRequest(source=0, destination=1))


def test_admission_zero_overdraw_replay():
    """Oversubscribe a 2-replica admission fleet (budgets for exactly 3
    of 8 identical requests), then replay the admitted mappings on a fresh
    private ledger: the commits must all fit (zero overdraw) and end below
    full utilisation, while the fleet's healthz shows the rejections and a
    <= 1.0 occupancy.  Runs everywhere — it asserts accounting, not speed."""
    admit_exactly, total = 3, 8
    probe = _two_node_instance(0)
    mapping = repro.solve("elpc", probe.pipeline, probe.network,
                          probe.request, Objective.MIN_DELAY)
    reference = ClusterState.from_network(probe.network)
    demand = reference.demand_of(mapping, demand_fps=1.0)
    ratios = [need / reference.node_capacity[reference.view.index_of[node]]
              for node, need in demand.nodes.items()]
    ratios += [need / reference.link_capacity[key]
               for key, need in demand.links.items()]
    factor = (admit_exactly + 0.5) * max(ratios)

    proc, port = _spawn_server(
        ["--replicas", "2", "--admission-control",
         "--admission-capacity-factor", repr(factor)])
    try:
        _wait_fleet(port, 2)
        # Fresh connection per request: the kernel spreads the stream over
        # both replicas, so overdraw would need only one accounting slip.
        with ServiceClient(port=port, keep_alive=False, timeout=60) as client:
            responses = [client.solve(_two_node_instance(i))
                         for i in range(total)]
            health = client.healthz()
    finally:
        _stop_server(proc)

    admitted = [r for r in responses if r["admission"]["admitted"]]
    assert len(admitted) == admit_exactly, health
    for response in admitted:
        assert response["mapping"]["groups"] == [
            list(group) for group in mapping.groups]
        assert response["mapping"]["path"] == list(mapping.path)

    # The replay: identical budgets, a fresh private ledger, demands
    # recomputed from the admitted mappings themselves.  CapacityError here
    # would mean the fleet double-spent capacity.
    cluster = ClusterState.from_network(probe.network,
                                        node_capacity_factor=factor,
                                        link_capacity_factor=factor)
    items = [SimpleNamespace(mapping=mapping, demand_fps=1.0)
             for _ in admitted]
    utilization = validate_placements(items, cluster)
    assert utilization["committed"] == admit_exactly
    assert 0.0 <= utilization["node_utilization"] <= 1.0
    assert 0.0 <= utilization["link_utilization"] <= 1.0
    assert utilization["node_remaining_min"] >= 0.0

    fleet = health["fleet"]
    assert fleet["admitted_total"] == admit_exactly
    assert fleet["rejected_total"] == total - admit_exactly
    occupancy = health["admission_occupancy"]
    assert 0.0 <= occupancy["node_occupancy_fraction"] <= 1.0
    assert 0.0 <= occupancy["link_occupancy_fraction"] <= 1.0
