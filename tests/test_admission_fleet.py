"""Replicated admission control through the supervisor's one admission book.

With ``--replicas N --admission-control`` every replica admits through a
pipe to ONE :class:`~repro.service.admission.AdmissionBook` in the
supervisor, so an oversubscribed 2-replica fleet admits exactly the same
multiset of request priorities as a 1-replica fleet — and as direct
:func:`repro.place_many` over the same budgets (the differential test).
Also the crash-release protocol: SIGKILL a replica holding reservations and
the supervisor's reap releases its holdings, after which a
previously-rejected request is admitted by a surviving replica; replicas
killed at random instants under load never wedge the fleet; a ``/delta``
on a fleet rebases the book's ledger like a single process does; and unit
tests of the supervisor side of the protocol.

The workload is a *forced-mapping* construction: a two-node cluster (both
nodes are the request's endpoints) leaves the solver exactly one grouping,
so service-side admission (solve on the full network, then commit), greedy
packing (solve on the residual, repair, commit) and raw ledger arithmetic
all make identical decisions — any divergence is an accounting bug, not a
solver degree of freedom.  Demands are uniform and requests are posted
sequentially in descending priority order, so "the same multiset of
priorities" is exact, not probabilistic.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import signal
import threading
import time
from collections import Counter

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
from repro import place_many
from repro.placement import ClusterState, PlacementRequest
from repro.service import BackgroundServer, ServiceClient, ServiceConfig
from repro.service.admission import AdmissionBook
from repro.service.replicas import FleetState, ReplicaSupervisor

from test_replicas import _spawn_fleet, _stop_fleet, _wait_fleet_ready

requires_fork = pytest.mark.skipif(not hasattr(os, "fork"),
                                   reason="pre-fork replicas need os.fork")

#: Distinct priorities, deliberately not sorted: the test posts in
#: descending priority order (so arrival order == priority order and the
#: sequential service path matches place_greedy's priority order), and the
#: admitted multiset must be exactly the top-K.
PRIORITIES = [7.0, 3.0, 9.0, 1.0, 5.0, 8.0, 2.0, 6.0]


def _two_node_network(power: float = 100.0) -> TransportNetwork:
    return TransportNetwork(
        nodes=[ComputingNode(node_id=0, processing_power=power),
               ComputingNode(node_id=1, processing_power=power)],
        links=[CommunicationLink(start_node=0, end_node=1,
                                 bandwidth_mbps=power, min_delay_ms=1.0)],
        name="admission-two-node")


def _pipeline() -> Pipeline:
    return Pipeline(modules=(
        ComputingModule(module_id=0, complexity=0.0, input_bytes=0.0,
                        output_bytes=1000.0),
        ComputingModule(module_id=1, complexity=3.0, input_bytes=1000.0,
                        output_bytes=500.0),
        ComputingModule(module_id=2, complexity=2.0, input_bytes=500.0,
                        output_bytes=0.0)))


def _capacity_factor_for(admit_exactly: int) -> float:
    """The capacity factor at which exactly ``admit_exactly`` requests fit.

    Uniform demands make admission pure counting: scale the budgets so the
    binding resource holds ``admit_exactly + 0.5`` per-request demands.
    """
    network = _two_node_network()
    pipeline = _pipeline()
    mapping = repro.solve("elpc", pipeline, network,
                          EndToEndRequest(source=0, destination=1),
                          Objective.MIN_DELAY)
    probe = ClusterState.from_network(network)
    demand = probe.demand_of(mapping, demand_fps=1.0)
    ratios = [need / probe.node_capacity[probe.view.index_of[node_id]]
              for node_id, need in demand.nodes.items()]
    ratios += [need / probe.link_capacity[key]
               for key, need in demand.links.items()]
    return (admit_exactly + 0.5) * max(ratios)


def _instances(priorities=PRIORITIES, power=100.0):
    network = _two_node_network(power)
    pipeline = _pipeline()
    return network, [
        ProblemInstance(name=f"adm-{i}", pipeline=pipeline, network=network,
                        request=EndToEndRequest(source=0, destination=1))
        for i in range(len(priorities))
    ]


def _admitted_priorities_via_fleet(replicas: int, factor: float) -> Counter:
    """Post the workload to a live fleet; the admitted-priority multiset."""
    proc, port = _spawn_fleet(replicas, "--admission-control",
                              "--admission-capacity-factor", f"{factor!r}")
    try:
        # keep_alive=False: every request opens a fresh connection, so under
        # SO_REUSEPORT the kernel spreads the stream across replicas — the
        # one admission book, not connection affinity, must serialise
        # admission.
        with ServiceClient(port=port, keep_alive=False,
                           timeout=60.0) as client:
            if replicas > 1:
                _wait_fleet_ready(client, replicas)
            else:
                client.wait_ready(timeout=30.0)
            _network, instances = _instances()
            order = sorted(range(len(PRIORITIES)),
                           key=lambda i: -PRIORITIES[i])
            admitted: Counter = Counter()
            replicas_seen = set()
            for i in order:
                response = client.solve(instances[i],
                                        priority=PRIORITIES[i])
                assert "admission" in response, response
                replicas_seen.add(response.get("replica_id"))
                if response["admission"]["admitted"]:
                    assert response["ok"], response
                    admitted[PRIORITIES[i]] += 1
                else:
                    assert not response["ok"]
                    assert "admission rejected" in (response["error"] or "")
            status = client.healthz()
        fleet = status.get("fleet") or {}
        if replicas > 1:
            # The satellite counters: fleet healthz sums admission per-replica
            # slots, and the summed occupancy never exceeds the cluster.
            assert fleet["admitted_total"] == sum(admitted.values())
            assert fleet["rejected_total"] == \
                len(PRIORITIES) - sum(admitted.values())
            assert status["admission_store"] == "shared"
        occupancy = status["admission_occupancy"]
        for kind in ("node", "link"):
            assert 0.0 <= occupancy[f"{kind}_occupancy_fraction"] <= 1.0
    finally:
        _stop_fleet(proc)
    return admitted


@requires_fork
class TestDifferentialAdmission:
    def test_fleet_sizes_and_place_many_admit_identically(self):
        admit_exactly = 3
        factor = _capacity_factor_for(admit_exactly)

        two = _admitted_priorities_via_fleet(2, factor)
        one = _admitted_priorities_via_fleet(1, factor)

        network, instances = _instances()
        cluster = ClusterState.from_network(
            network, node_capacity_factor=factor,
            link_capacity_factor=factor)
        result = place_many(
            [PlacementRequest(instance, priority=PRIORITIES[i])
             for i, instance in enumerate(instances)],
            placer="place-greedy", cluster=cluster)
        direct = Counter(item.priority for item in result.items
                         if item.mapping is not None)

        expected = Counter(sorted(PRIORITIES, reverse=True)[:admit_exactly])
        assert two == one == direct == expected


@requires_fork
class TestCrashRelease:
    def test_sigkill_releases_holdings_and_survivor_admits(self):
        factor = _capacity_factor_for(1)  # room for exactly one admission
        proc, port = _spawn_fleet(2, "--admission-control",
                                  "--admission-capacity-factor",
                                  f"{factor!r}")
        try:
            with ServiceClient(port=port, keep_alive=False,
                               timeout=60.0) as client:
                _wait_fleet_ready(client, 2)
                _network, instances = _instances()

                hog = client.solve(instances[0], priority=9.0)
                assert hog["admission"]["admitted"], hog
                holder = int(hog["replica_id"])

                rejected = client.solve(instances[1], priority=1.0)
                assert rejected["admission"]["admitted"] is False, rejected

                status = client.healthz()
                pid = next(row["pid"] for row in status["per_replica"]
                           if row["replica_id"] == holder)
                os.kill(pid, signal.SIGKILL)

                # The reap refunds the dead replica's journalled holdings;
                # once it lands, the previously-rejected request fits.  Posts
                # before the reap keep being rejected, posts landing on the
                # dying socket are retried — poll until admission flips.
                deadline = time.monotonic() + 30.0
                admitted_after_crash = None
                while time.monotonic() < deadline:
                    try:
                        retry = client.solve(instances[1], priority=1.0)
                    except OSError:
                        time.sleep(0.1)
                        continue
                    if retry.get("admission", {}).get("admitted"):
                        admitted_after_crash = retry
                        break
                    time.sleep(0.1)
                assert admitted_after_crash is not None, \
                    "crashed replica's reservations were never released"

                status = client.healthz()
                occupancy = status["admission_occupancy"]
                assert occupancy["released_total"] >= 1
                assert 0.0 <= occupancy["node_occupancy_fraction"] <= 1.0
                assert 0.0 <= occupancy["link_occupancy_fraction"] <= 1.0
        finally:
            _stop_fleet(proc)


def _admitted_via(client, instance, *, deadline_s=10.0) -> dict:
    """Post until the response is an admission (retrying connections that
    land on a dying replica); fails the test at the deadline."""
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        try:
            response = client.solve(instance)
        except OSError:
            time.sleep(0.05)
            continue
        if response.get("admission", {}).get("admitted"):
            return response
        time.sleep(0.05)
    raise AssertionError(f"no admission within {deadline_s}s — fleet wedged")


def _replica_row(client, replica_id) -> dict:
    status = client.healthz()
    return next(row for row in status["per_replica"]
                if row["replica_id"] == replica_id)


def _kill_and_await_restart(client, replica_id, *, timeout=20.0) -> None:
    """SIGKILL one replica and wait until its successor is alive."""
    pid = _replica_row(client, replica_id)["pid"]
    os.kill(pid, signal.SIGKILL)
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            row = _replica_row(client, replica_id)
        except OSError:
            row = None
        if row is not None and row["alive"] and row["pid"] != pid:
            return
        time.sleep(0.05)
    raise AssertionError(f"replica {replica_id} was not restarted")


@requires_fork
class TestKillAtRandomPoints:
    def test_random_sigkills_under_load_never_wedge_admission(self):
        factor = _capacity_factor_for(3)
        _network, small = _instances()
        # A cluster 1e4x the small one: its budgets never fill, so it probes
        # liveness; the small one fills and proves that holdings come back.
        _big_network, big = _instances(power=1e6)
        proc, port = _spawn_fleet(2, "--admission-control",
                                  "--admission-capacity-factor",
                                  f"{factor!r}")
        stop = threading.Event()
        unexpected: list = []

        def load(seed):
            rng = random.Random(seed)
            with ServiceClient(port=port, keep_alive=False,
                               timeout=30.0) as client:
                while not stop.is_set():
                    instance = rng.choice(small + big)
                    try:
                        response = client.solve(instance)
                    except OSError:
                        continue  # the accepting replica was just killed
                    if "admission" not in response:
                        unexpected.append(response)

        try:
            with ServiceClient(port=port, keep_alive=False,
                               timeout=60.0) as client:
                _wait_fleet_ready(client, 2)
                workers = [threading.Thread(target=load, args=(seed,))
                           for seed in (11, 12)]
                for worker in workers:
                    worker.start()
                try:
                    rng = random.Random(2024)
                    for _ in range(5):
                        time.sleep(rng.uniform(0.1, 0.6))
                        _kill_and_await_restart(client, rng.randrange(2))
                        _admitted_via(client, big[0])
                finally:
                    stop.set()
                    for worker in workers:
                        worker.join()
                assert not unexpected, unexpected[:3]

                # Kill every replica that may hold anything; once both are
                # reaped the book holds nothing at all.
                for replica_id in range(2):
                    _kill_and_await_restart(client, replica_id)
                occupancy = client.healthz()["admission_occupancy"]
                assert occupancy["node_occupancy_fraction"] == 0.0, occupancy
                assert occupancy["link_occupancy_fraction"] == 0.0, occupancy
                assert occupancy["released_total"] >= 2

                # ...and the forced-mapping workload admits what a freshly
                # started fleet admits (the differential test's top three).
                admitted: Counter = Counter()
                for i in sorted(range(len(PRIORITIES)),
                                key=lambda i: -PRIORITIES[i]):
                    response = client.solve(small[i], priority=PRIORITIES[i])
                    if response["admission"]["admitted"]:
                        admitted[PRIORITIES[i]] += 1
                assert admitted == Counter(
                    sorted(PRIORITIES, reverse=True)[:3])
        finally:
            stop.set()
            _stop_fleet(proc)


def _delta_after_solve(client) -> dict:
    """Admit one forced-mapping request, then cut node 1 and the link to a
    hundredth of their capacity."""
    _network, instances = _instances()
    solved = client.solve(instances[0])
    assert solved["admission"]["admitted"], solved
    return client.apply_delta(instances[0].network, [
        {"kind": "power", "node": 1, "value": 1.0},
        {"kind": "bandwidth", "u": 0, "v": 1, "value": 1.0}])


@requires_fork
class TestFleetDelta:
    def test_delta_rebases_the_fleet_ledger_like_one_process(self):
        factor = _capacity_factor_for(1)
        config = ServiceConfig(max_batch=1, max_wait_ms=0.0,
                               admission_control=True,
                               admission_capacity_factor=factor)
        with BackgroundServer(config) as server:
            single = _delta_after_solve(server.client())
        assert single["ok"] and single["ledger_rebased"] is True
        assert single["capacity_violations"]

        proc, port = _spawn_fleet(2, "--admission-control",
                                  "--admission-capacity-factor",
                                  f"{factor!r}")
        try:
            with ServiceClient(port=port, timeout=60.0) as client:
                _wait_fleet_ready(client, 2)
                # One keep-alive connection: the delta reaches the replica
                # that interned the network.
                fleet = _delta_after_solve(client)
        finally:
            _stop_fleet(proc)
        assert fleet["ok"] is True, fleet
        assert fleet["ledger_rebased"] is True
        assert fleet["capacity_violations"] == single["capacity_violations"]


def _supervisor_with_book() -> ReplicaSupervisor:
    """A supervisor whose admission side is live but which forked nothing."""
    supervisor = ReplicaSupervisor(ServiceConfig(admission_control=True),
                                   replicas=2)
    supervisor.fleet = FleetState(2)
    supervisor.admission = AdmissionBook()
    return supervisor


def _admit_message(network, demand, key="net0"):
    return ("admit", [(key, demand)], {key: network.to_dict()})


class TestSupervisorAdmission:
    def test_buffered_message_of_a_reaped_replica_is_never_committed(self):
        network, instances = _instances()
        mapping = repro.solve("elpc", instances[0].pipeline, network,
                              instances[0].request, Objective.MIN_DELAY)
        demand = ClusterState.demand_of(mapping)
        supervisor = _supervisor_with_book()
        dead_end, dying = multiprocessing.Pipe()
        live_end, live = multiprocessing.Pipe()
        supervisor._pipes.update({0: live_end, 1: dead_end})
        supervisor._children[-1] = 1  # replica 1's (already exited) pid
        dying.send(_admit_message(network, demand, key="dead"))
        dying.close()
        live.send(_admit_message(network, demand))

        assert supervisor._collect(-1) == 1
        supervisor._pump(0.5)
        # The live replica's message was answered and committed; the one
        # buffered in the reaped replica's pipe was dropped with the pipe.
        assert live.recv() == (True, [None])
        assert list(supervisor._pipes) == [0]
        assert supervisor.admission.occupancy()["networks"] == 1.0
        assert "dead" not in supervisor.admission._ledgers

    def test_releasing_a_holder_twice_refunds_once(self):
        network, instances = _instances()
        mapping = repro.solve("elpc", instances[0].pipeline, network,
                              instances[0].request, Objective.MIN_DELAY)
        supervisor = _supervisor_with_book()
        book = supervisor.admission
        for _ in range(2):
            book.answer(1, _admit_message(network,
                                          ClusterState.demand_of(mapping)))
        supervisor._children[-1] = 1
        assert supervisor._collect(-1) == 1  # the reap releases holder 1
        assert book.release(1) == 0          # nothing left to refund
        ledger = book._ledgers["net0"]
        pristine = ClusterState.from_network(network)
        assert ledger.committed == []
        assert list(ledger.node_remaining) == list(pristine.node_remaining)
        assert book.occupancy()["released_total"] == 1.0

    def test_a_holder_is_released_in_one_pass(self, monkeypatch):
        network, instances = _instances()
        other = _two_node_network(power=200.0)
        mapping = repro.solve("elpc", instances[0].pipeline, network,
                              instances[0].request, Objective.MIN_DELAY)
        book = AdmissionBook(1e6)
        asks = [(key, ClusterState.demand_of(mapping))
                for _ in range(2000) for key in ("a", "b")]
        verdicts = book.admit(0, asks, {"a": network, "b": other})
        assert verdicts == [None] * len(asks)
        book.admit(1, [("a", ClusterState.demand_of(mapping))], {})

        passes = []
        release_many = ClusterState.release_many

        def counted(ledger, demands):
            passes.append(len(demands))
            return release_many(ledger, demands)

        def per_demand(ledger, demand):  # pragma: no cover - the failure
            raise AssertionError("released one demand at a time")

        monkeypatch.setattr(ClusterState, "release_many", counted)
        monkeypatch.setattr(ClusterState, "release", per_demand)
        assert book.release(0) == len(asks)
        assert sorted(passes) == [2000, 2000]  # one pass per ledger
        assert len(book._ledgers["a"].committed) == 1  # holder 1's stays
        assert book._ledgers["b"].committed == []
