"""Unit tests for the multi-tenant placement subsystem (repro.placement).

Covers the capacity ledger (budget derivation, atomic commit/release,
snapshot/restore, validation), the oversubscription edge cases named by the
PR (zero-capacity nodes, jointly-infeasible-but-individually-feasible
batches, priority ties), the placer registry, the min-cost-flow kernel on
hand-checkable networks, and a hypothesis property: no accepted placement
set ever exceeds any node or link capacity.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Objective, place_many
from repro.exceptions import CapacityError, SpecificationError
from repro.generators import random_network, random_pipeline, random_request
from repro.model import ProblemInstance
from repro.placement import (
    ClusterState,
    MinCostFlow,
    PlacementRequest,
    available_placers,
    get_placer,
    place_flow,
    place_greedy,
    register_placer,
    validate_placements,
)

PROFILE = settings(max_examples=15, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])


def _shared_batch(count, *, n_modules=6, n_nodes=12, n_links=30, seed=3):
    """``count`` pipelines over one shared network (the placement shape)."""
    network = random_network(n_nodes, n_links, seed=seed)
    return [
        ProblemInstance(
            pipeline=random_pipeline(n_modules, seed=100 + i),
            network=network,
            request=random_request(network, seed=200 + i, min_hop_distance=2),
            name=f"place-{i}")
        for i in range(count)
    ]


class TestClusterStateBudgets:
    def test_budgets_derived_from_power_and_bandwidth(self):
        network = random_network(8, 16, seed=1)
        cluster = ClusterState.from_network(network, node_capacity_factor=0.5,
                                            link_capacity_factor=2.0)
        for node in network.nodes():
            assert cluster.remaining_node(node.node_id) == pytest.approx(
                node.processing_power * 1e6 * 0.5)
        for link in network.links():
            assert cluster.remaining_link(
                link.start_node, link.end_node) == pytest.approx(
                    link.bandwidth_mbps * 1e6 * 2.0)

    def test_link_budget_is_shared_across_directions(self):
        network = random_network(8, 16, seed=1)
        cluster = ClusterState.from_network(network)
        link = network.links()[0]
        forward = cluster.remaining_link(link.start_node, link.end_node)
        backward = cluster.remaining_link(link.end_node, link.start_node)
        assert forward == backward

    def test_negative_capacity_factor_rejected(self):
        network = random_network(6, 10, seed=2)
        with pytest.raises(SpecificationError, match=">= 0"):
            ClusterState.from_network(network, node_capacity_factor=-1.0)

    def test_unknown_node_override_rejected(self):
        network = random_network(6, 10, seed=2)
        with pytest.raises(SpecificationError, match="unknown node"):
            ClusterState.from_network(network, node_capacity={999: 0.0})


class TestCommitReleaseSnapshot:
    def _cluster_and_demand(self):
        (instance,) = _shared_batch(1, seed=7)
        cluster = ClusterState.from_network(instance.network)
        from repro.core import solve

        mapping = solve("elpc-tensor", instance.pipeline, instance.network,
                        instance.request, objective=Objective.MIN_DELAY)
        return cluster, cluster.demand_of(mapping, demand_fps=1.0)

    def test_commit_then_release_restores_remaining(self):
        cluster, demand = self._cluster_and_demand()
        before = {n: cluster.remaining_node(n) for n in demand.nodes}
        cluster.commit(demand)
        for node_id, used in demand.nodes.items():
            assert cluster.remaining_node(node_id) == pytest.approx(
                before[node_id] - used)
        cluster.release(demand)
        for node_id in demand.nodes:
            assert cluster.remaining_node(node_id) == pytest.approx(
                before[node_id])
        assert cluster.commits_total == 1 and cluster.releases_total == 1
        cluster.validate()

    def test_failed_commit_is_atomic(self):
        """A commit that violates any budget must leave the ledger exactly
        as it was — no partial node debits before the failing link."""
        cluster, demand = self._cluster_and_demand()
        # Drain one node the demand needs so the commit must fail.
        victim = max(demand.nodes, key=demand.nodes.get)
        cluster.node_remaining[cluster.view.index_of[victim]] = 0.0
        snap = cluster.snapshot()
        with pytest.raises(CapacityError, match="node"):
            cluster.commit(demand)
        after = cluster.snapshot()
        assert list(after.node_remaining) == list(snap.node_remaining)
        assert after.link_remaining == snap.link_remaining
        assert cluster.commits_total == 0

    def test_snapshot_restore_after_failed_commit(self):
        cluster, demand = self._cluster_and_demand()
        snap = cluster.snapshot()
        cluster.commit(demand)  # succeeds, mutates the ledger
        victim = max(demand.nodes, key=demand.nodes.get)
        cluster.node_remaining[cluster.view.index_of[victim]] = 0.0
        with pytest.raises(CapacityError):
            cluster.commit(demand)
        cluster.restore(snap)
        assert not cluster.committed
        for node_id in demand.nodes:
            assert cluster.remaining_node(node_id) == pytest.approx(
                cluster.node_capacity[cluster.view.index_of[node_id]])
        cluster.validate()

    def test_release_of_uncommitted_demand_rejected(self):
        cluster, demand = self._cluster_and_demand()
        with pytest.raises(SpecificationError, match="not currently committed"):
            cluster.release(demand)

    def test_demand_against_foreign_network_rejected(self):
        cluster, demand = self._cluster_and_demand()
        other = random_network(6, 12, seed=99)
        foreign = ClusterState.from_network(other)
        with pytest.raises(SpecificationError):
            foreign.violations(demand)


class TestZeroCapacityNodes:
    def test_drained_inner_node_is_routed_around(self):
        instances = _shared_batch(4, seed=11)
        network = instances[0].network
        endpoints = set()
        for inst in instances:
            endpoints.update((inst.request.source,
                              inst.request.destination))
        dead = next(n.node_id for n in network.nodes()
                    if n.node_id not in endpoints)
        cluster = ClusterState.from_network(network,
                                            node_capacity={dead: 0.0})
        result = place_greedy(instances, cluster)
        assert result.n_admitted >= 1
        for item in result.admitted_items():
            assert item.demand.nodes.get(dead, 0.0) == 0.0
        validate_placements(result.items, cluster)

    def test_drained_endpoint_rejects_fast(self):
        (instance,) = _shared_batch(1, seed=13)
        source = instance.request.source
        cluster = ClusterState.from_network(instance.network,
                                            node_capacity={source: 0.0})
        workloads = instance.pipeline.workloads()
        result = place_greedy([instance], cluster)
        if workloads[0] > 0:
            assert result.n_admitted == 0
            assert "endpoint" in result.items[0].error

    def test_all_nodes_drained_rejects_everything(self):
        instances = _shared_batch(3, seed=17)
        cluster = ClusterState.from_network(instances[0].network,
                                            node_capacity_factor=0.0)
        result = place_greedy(instances, cluster)
        assert result.n_admitted == 0
        assert all(item.error for item in result.items)


class TestPriorityOrder:
    def _tight_cluster(self, instances, fps=1.0):
        """A cluster that can hold roughly one of the batch's pipelines."""
        network = instances[0].network
        probe = ClusterState.from_network(network)
        greedy = place_greedy(instances, probe, demand_fps=fps)
        assert greedy.n_admitted >= 1
        demand = next(i.demand for i in greedy.admitted_items())
        # Budget: every node gets just the max single-pipeline node draw.
        cap = max(demand.nodes.values()) * 1.2
        return ClusterState.from_network(
            network, node_capacity={n.node_id: cap for n in network.nodes()})

    def test_higher_priority_wins_the_capacity_race(self):
        instances = _shared_batch(2, n_modules=8, seed=19)
        requests_a = [PlacementRequest(instances[0], priority=0.0),
                      PlacementRequest(instances[1], priority=5.0)]
        cluster = self._tight_cluster(instances)
        result = place_greedy(requests_a, cluster)
        if result.n_admitted < 2:  # contended, as constructed
            assert result.items[1].admitted
            assert not result.items[0].admitted

    def test_priority_ties_break_by_input_position(self):
        instances = _shared_batch(2, n_modules=8, seed=19)
        requests = [PlacementRequest(inst, priority=1.0)
                    for inst in instances]
        cluster = self._tight_cluster(instances)
        result = place_greedy(requests, cluster)
        if result.n_admitted < 2:
            assert result.items[0].admitted, \
                "equal priority must admit the earlier arrival"

    def test_input_order_ignores_priority(self):
        instances = _shared_batch(2, n_modules=8, seed=19)
        requests = [PlacementRequest(instances[0], priority=0.0),
                    PlacementRequest(instances[1], priority=5.0)]
        cluster = self._tight_cluster(instances)
        result = place_greedy(requests, cluster, order="input")
        if result.n_admitted < 2:
            assert result.items[0].admitted

    def test_unknown_order_rejected(self):
        instances = _shared_batch(2, seed=19)
        cluster = ClusterState.from_network(instances[0].network)
        with pytest.raises(SpecificationError, match="order"):
            place_greedy(instances, cluster, order="fifo")


class TestJointInfeasibility:
    def test_individually_feasible_jointly_infeasible(self):
        """Each request fits an empty cluster; the pair does not."""
        instances = _shared_batch(2, n_modules=8, seed=5)
        network = instances[0].network
        fps = 1.0
        demands = []
        for inst in instances:
            fresh = ClusterState.from_network(network)
            solo = place_greedy([inst], fresh, demand_fps=fps)
            assert solo.n_admitted == 1
            demands.append(solo.admitted_items()[0].demand)
        # Cap every node at 1.05x the larger single-pipeline draw: either
        # request fits alone, but their endpoint/bottleneck draws collide.
        peak = max(max(d.nodes.values()) for d in demands)
        caps = {n.node_id: peak * 1.05 for n in network.nodes()}

        def tight():
            return ClusterState.from_network(network, node_capacity=caps)

        for inst in instances:
            assert place_greedy([inst], tight(),
                                demand_fps=fps).n_admitted == 1
        both = place_greedy(instances, tight(), demand_fps=fps)
        assert both.n_admitted == 1, \
            "seed 5 is pinned because the pair contends at 1.05x peak"
        validate_placements(both.items, tight())


class TestRegistry:
    def test_builtins_registered(self):
        assert available_placers() == ["place-flow", "place-greedy"]
        assert get_placer("place-greedy") is place_greedy
        assert get_placer("PLACE-FLOW") is place_flow

    def test_unknown_placer_lists_known(self):
        with pytest.raises(SpecificationError, match="place-greedy"):
            get_placer("place-magic")

    def test_register_rejects_silent_overwrite(self):
        def fake(*args, **kwargs):  # pragma: no cover - never called
            raise AssertionError

        with pytest.raises(SpecificationError, match="already registered"):
            register_placer("place-greedy", fake)


class TestMinCostFlowKernel:
    def test_two_path_network_prefers_cheap_path(self):
        # S=0, T=1, A=2, B=3: S->A->T (cost 1) and S->B->T (cost 3).
        mcmf = MinCostFlow(4)
        sa = mcmf.add_edge(0, 2, 5.0, 0.0)
        at = mcmf.add_edge(2, 1, 5.0, 1.0)
        sb = mcmf.add_edge(0, 3, 5.0, 0.0)
        bt = mcmf.add_edge(3, 1, 5.0, 3.0)
        flow, cost = mcmf.solve(0, 1, max_flow=7.0)
        assert flow == pytest.approx(7.0)
        assert cost == pytest.approx(5.0 * 1.0 + 2.0 * 3.0)
        assert mcmf.flow_on(sa) == pytest.approx(5.0)
        assert mcmf.flow_on(sb) == pytest.approx(2.0)
        assert mcmf.flow_on(at) == pytest.approx(5.0)
        assert mcmf.flow_on(bt) == pytest.approx(2.0)

    def test_flow_bounded_by_cut(self):
        mcmf = MinCostFlow(3)
        mcmf.add_edge(0, 2, 4.0, 0.0)
        mcmf.add_edge(2, 1, 1.5, 2.0)
        flow, cost = mcmf.solve(0, 1)
        assert flow == pytest.approx(1.5)
        assert cost == pytest.approx(3.0)

    def test_negative_inputs_rejected(self):
        mcmf = MinCostFlow(2)
        with pytest.raises(SpecificationError):
            mcmf.add_edge(0, 1, -1.0, 0.0)
        with pytest.raises(SpecificationError):
            mcmf.add_edge(0, 1, 1.0, -0.5)
        with pytest.raises(SpecificationError):
            mcmf.add_edge(0, 5, 1.0, 0.0)


@st.composite
def _placement_scenarios(draw):
    seed = draw(st.integers(min_value=0, max_value=40))
    count = draw(st.integers(min_value=2, max_value=5))
    factor = draw(st.sampled_from([0.01, 0.05, 0.2, 1.0]))
    fps = draw(st.sampled_from([0.5, 1.0, 4.0]))
    placer = draw(st.sampled_from(["place-greedy", "place-flow"]))
    return seed, count, factor, fps, placer


class TestCapacityProperty:
    @PROFILE
    @given(_placement_scenarios())
    def test_accepted_set_never_exceeds_any_capacity(self, scenario):
        seed, count, factor, fps, placer = scenario
        instances = _shared_batch(count, n_modules=5, n_nodes=10,
                                  n_links=24, seed=seed)
        cluster = ClusterState.from_network(
            instances[0].network, node_capacity_factor=factor,
            link_capacity_factor=factor)
        result = place_many(instances, placer=placer, cluster=cluster,
                            demand_fps=fps)
        # validate_placements recomputes every admitted demand from the
        # mapping itself and raises CapacityError on any overdraw.
        audit = validate_placements(result.items, cluster)
        assert audit["committed"] == result.n_admitted
        cluster.validate()
        for item in result.items:
            assert item.admitted == (item.error is None)
