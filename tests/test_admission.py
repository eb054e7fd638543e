"""End-to-end tests for service admission control and the repro-serve/2 wire.

The service satellite of the placement PR: requests carry a ``priority``,
the dispatcher charges every successful solve against a per-network
:class:`repro.placement.ClusterState` ledger when ``admission_control`` is
on, rejected requests answer ``ok: false`` with an ``admission`` object, and
``/healthz`` exposes ``admitted_total`` / ``rejected_total``.  The server
accepts ``repro-serve/1`` payloads verbatim and rejects unknown schemas.
"""

from __future__ import annotations

import threading

import pytest

from repro.exceptions import SpecificationError
from repro.generators import random_network, random_pipeline, random_request
from repro.model import ProblemInstance
from repro.service import (
    BackgroundServer,
    ServiceConfig,
    SolveRequest,
    WIRE_SCHEMA,
)
from repro.service.wire import SUPPORTED_SCHEMAS, WIRE_SCHEMA_V1


def _single_fit_factor(instance, *, headroom=1.5):
    """A capacity factor that fits exactly one copy of ``instance``.

    The binding resource is loaded to ``1/headroom`` of its budget by one
    admitted mapping, so a second identical commit (``2/headroom > 1`` of
    the budget for ``headroom < 2``) must be rejected.
    """
    from repro.core import Objective, solve
    from repro.placement import ClusterState

    mapping = solve("elpc-tensor", instance.pipeline, instance.network,
                    instance.request, objective=Objective.MIN_DELAY)
    probe = ClusterState.from_network(instance.network)
    demand = probe.demand_of(mapping)
    fractions = [used / probe.remaining_node(node)
                 for node, used in demand.nodes.items()]
    fractions += [used / probe.remaining_link(*key)
                  for key, used in demand.links.items()]
    return headroom * max(fractions)


def _instances(count, *, network_seed=3, n_nodes=12, n_links=30,
               n_modules=6):
    network = random_network(n_nodes, n_links, seed=network_seed)
    return [
        ProblemInstance(
            pipeline=random_pipeline(n_modules, seed=700 + i),
            network=network,
            request=random_request(network, seed=800 + i, min_hop_distance=2),
            name=f"adm-{i}")
        for i in range(count)
    ]


class TestWireV2:
    def test_current_schema_is_v2(self):
        assert WIRE_SCHEMA == "repro-serve/2"
        assert SUPPORTED_SCHEMAS == {WIRE_SCHEMA, WIRE_SCHEMA_V1}

    def test_priority_round_trips(self):
        (instance,) = _instances(1)
        request = SolveRequest(instance=instance, priority=3.5)
        payload = request.to_wire()
        assert payload["schema"] == WIRE_SCHEMA
        assert payload["priority"] == 3.5
        back = SolveRequest.from_wire(payload)
        assert back.priority == 3.5

    def test_zero_priority_is_omitted_from_the_wire(self):
        (instance,) = _instances(1)
        payload = SolveRequest(instance=instance).to_wire()
        assert "priority" not in payload

    def test_v1_payload_accepted_verbatim(self):
        (instance,) = _instances(1)
        payload = SolveRequest(instance=instance, priority=9.0).to_wire()
        # A /1 client: old schema tag (or none at all), no priority field.
        del payload["priority"]
        for schema in (WIRE_SCHEMA_V1, None):
            v1 = dict(payload)
            if schema is None:
                v1.pop("schema", None)
            else:
                v1["schema"] = schema
            request = SolveRequest.from_wire(v1)
            assert request.priority == 0.0
            assert request.instance.pipeline.n_modules == \
                instance.pipeline.n_modules

    def test_unknown_schema_rejected(self):
        (instance,) = _instances(1)
        payload = SolveRequest(instance=instance).to_wire()
        payload["schema"] = "repro-serve/3"
        with pytest.raises(SpecificationError, match="unsupported wire"):
            SolveRequest.from_wire(payload)

    @pytest.mark.parametrize("bad", ["high", True, [1]])
    def test_non_numeric_priority_rejected(self, bad):
        (instance,) = _instances(1)
        payload = SolveRequest(instance=instance).to_wire()
        payload["priority"] = bad
        with pytest.raises(SpecificationError, match="priority"):
            SolveRequest.from_wire(payload)


class TestAdmissionControl:
    def test_uncontended_everything_admitted(self):
        instances = _instances(4)
        config = ServiceConfig(max_batch=4, max_wait_ms=5000.0,
                               admission_control=True,
                               admission_capacity_factor=1e9)
        with BackgroundServer(config) as server:
            client = server.client()
            responses = [client.solve(inst) for inst in instances]
            status = client.healthz()
        assert all(r["ok"] for r in responses)
        assert all(r["admission"] == {"admitted": True, "priority": 0.0}
                   for r in responses)
        assert status["admitted_total"] == 4
        assert status["rejected_total"] == 0
        assert status["admission_ledgers"] == 1
        # Single-process serving charges an in-process LocalStore; healthz
        # still reports the occupancy block the fleet path exposes.
        assert status["admission_store"] == "local"
        occupancy = status["admission_occupancy"]
        assert occupancy["networks"] == 1
        assert 0.0 <= occupancy["node_occupancy_fraction"] <= 1.0
        assert 0.0 <= occupancy["link_occupancy_fraction"] <= 1.0
        assert occupancy["node_residual_fraction"] == pytest.approx(
            1.0 - occupancy["node_occupancy_fraction"])
        assert occupancy["released_total"] == 0

    def test_oversubscribed_rejects_with_reason(self):
        instances = _instances(6, n_modules=10)
        config = ServiceConfig(max_batch=1, max_wait_ms=0.0,
                               admission_control=True,
                               admission_capacity_factor=0.05,
                               admission_demand_fps=2.0)
        with BackgroundServer(config) as server:
            client = server.client()
            responses = [client.solve(inst) for inst in instances]
            status = client.healthz()
        rejected = [r for r in responses if not r["ok"]]
        admitted = [r for r in responses if r["ok"]]
        assert rejected, "0.05x capacity at 2 fps must reject something"
        for response in rejected:
            assert response["admission"]["admitted"] is False
            assert response["admission"]["reason"]
            assert "admission rejected" in response["error"]
        assert status["admitted_total"] == len(admitted)
        assert status["rejected_total"] == len(rejected)

    def test_commitments_persist_across_flushes(self):
        """The ledger is service-lifetime state: a request admitted in an
        early flush keeps its capacity through later flushes."""
        (instance,) = _instances(1, n_modules=8)
        config = ServiceConfig(max_batch=1, max_wait_ms=0.0,
                               admission_control=True,
                               admission_capacity_factor=_single_fit_factor(
                                   instance, headroom=3.0))
        with BackgroundServer(config) as server:
            client = server.client()
            first = client.solve(instance)
            repeats = [client.solve(instance) for _ in range(8)]
            status = client.healthz()
        assert first["ok"]
        assert any(not r["ok"] for r in repeats), \
            "repeating one admitted pipeline must eventually exhaust 0.8x"
        assert status["admitted_total"] + status["rejected_total"] == 9

    def test_priority_wins_the_capacity_race(self):
        """Two identical requests coalesce into one flush that only has
        capacity for one: the higher-priority one must win even though it
        was posted second."""
        (instance,) = _instances(1, n_modules=8)
        config = ServiceConfig(max_batch=2, max_wait_ms=5000.0,
                               admission_control=True,
                               admission_capacity_factor=_single_fit_factor(
                                   instance))
        with BackgroundServer(config) as server:
            client = server.client()
            responses = [None, None]
            barrier = threading.Barrier(2)

            def post(slot, priority):
                barrier.wait()
                responses[slot] = client.solve(instance, priority=priority)

            threads = [threading.Thread(target=post, args=(0, 0.0)),
                       threading.Thread(target=post, args=(1, 7.0))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        low, high = responses
        assert high["group_size"] == 2, \
            "both requests must ride one flush for the race to be real"
        assert high["ok"] and high["admission"]["admitted"] is True
        assert high["admission"]["priority"] == 7.0
        assert not low["ok"]
        assert low["admission"]["admitted"] is False

    def test_admission_off_leaves_wire_unchanged(self):
        instances = _instances(2)
        with BackgroundServer(ServiceConfig(max_batch=1,
                                            max_wait_ms=0.0)) as server:
            client = server.client()
            responses = [client.solve(inst) for inst in instances]
            status = client.healthz()
        assert all(r["ok"] and "admission" not in r for r in responses)
        assert status["admission_control"] is False
        assert "admission_ledgers" not in status

    def test_failed_solves_are_not_counted(self):
        (instance,) = _instances(1)
        config = ServiceConfig(max_batch=1, max_wait_ms=0.0,
                               admission_control=True)
        with BackgroundServer(config) as server:
            client = server.client()
            response = client.solve(instance, solver="no-such-solver")
            status = client.healthz()
        assert not response["ok"]
        assert "admission" not in response
        assert status["admitted_total"] == 0
        assert status["rejected_total"] == 0

    def test_negative_capacity_factor_rejected(self):
        with pytest.raises(SpecificationError, match="admission_capacity"):
            ServiceConfig(admission_capacity_factor=-1.0)
        with pytest.raises(SpecificationError, match="admission_demand"):
            ServiceConfig(admission_demand_fps=-1.0)


class TestAdmissionAcrossInterning:
    def test_interner_eviction_keeps_drained_budgets(self):
        """Regression: evicting a network from the interner used to rebuild
        its ledger with full budgets on the next request, so re-posting the
        same tenants admitted them a second time — twice the real capacity.
        Ledgers are keyed by base network ref, so the re-interned network
        rejoins its drained ledger."""
        import asyncio

        from repro.service import SolveService

        cluster_a = random_network(12, 30, seed=3)
        cluster_b = random_network(12, 30, seed=4)
        tenants = [
            ProblemInstance(pipeline=random_pipeline(6, seed=84 + i),
                            network=cluster_a,
                            request=random_request(cluster_a, seed=84 + i,
                                                   min_hop_distance=2),
                            name=f"tenant-{i}")
            for i in range(12)]
        other = ProblemInstance(pipeline=random_pipeline(6, seed=1),
                                network=cluster_b,
                                request=random_request(cluster_b, seed=2),
                                name="evictor")
        service = SolveService(ServiceConfig(admission_control=True,
                                             admission_capacity_factor=0.2,
                                             intern_networks=1))

        async def post(instances):
            admitted = 0
            for instance in instances:
                request = SolveRequest.from_wire(
                    SolveRequest(instance=instance).to_wire(),
                    interner=service.interner)
                response = await service.submit(request)
                admitted += bool(response.get("admission", {}).get("admitted"))
            return admitted

        async def scenario():
            await service.start()
            try:
                first = await post(tenants)
                await post([other])  # evicts cluster A (intern_networks=1)
                again = await post(tenants)
            finally:
                await service.close()
            return first, again

        first, again = asyncio.run(scenario())
        assert first == 4
        assert again == 0
        status = service.status()
        assert status["admission_ledgers"] == 2
        assert status["admitted_total"] == first

    def test_delta_rebases_the_ledger_of_its_network(self):
        """A /delta rebases the ledger of the network it patched, and a
        request naming a later epoch (``digest@epoch``) charges that same
        ledger."""
        (instance,) = _instances(1, n_modules=8)
        config = ServiceConfig(max_batch=1, max_wait_ms=0.0,
                               admission_control=True,
                               admission_capacity_factor=_single_fit_factor(
                                   instance, headroom=1.2))
        with BackgroundServer(config) as server:
            client = server.client()
            first = client.solve(instance)
            assert first["admission"]["admitted"]
            node = first["mapping"]["path"][1]
            power = instance.network.node(node).processing_power
            halved = client.apply_delta(instance.network, [
                {"kind": "power", "node": node, "value": power / 2.0}])
            restored = client.apply_delta(instance.network, [
                {"kind": "power", "node": node, "value": power}])
            # The client now names the network as digest@epoch: the same
            # ledger, still holding the first admission.
            again = client.solve(instance)
            status = client.healthz()
        assert halved["ok"] and halved["ledger_rebased"] is True
        assert any(v.startswith(f"node {node}:")
                   for v in halved["capacity_violations"])
        assert restored["ledger_rebased"] is True
        assert restored["capacity_violations"] == []
        assert "@" in restored["network_ref"]
        assert again["admission"]["admitted"] is False
        assert status["admission_ledgers"] == 1
