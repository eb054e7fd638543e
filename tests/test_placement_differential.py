"""Differential tests pinning the placers to the per-pipeline engines.

Two regimes, per the PR's acceptance criteria:

* **Uncontended** (capacity factors so large that budgets never bind): both
  ``place-greedy`` and ``place-flow`` must reproduce per-pipeline
  :func:`repro.solve_many` *exactly* — same admission (everything), same
  objective values, same paths — for both objectives.  The placement layer
  must be a strict generalisation, not a different solver.
* **Oversubscribed** (moderate contention): the joint flow optimizer must
  admit at least as many requests as sequential packing, its total objective
  over the common admitted set must be no worse, and the batch-level
  capacity validator must pass for both.
"""

from __future__ import annotations

import pytest

from repro.core import Objective, place_many, solve_many
from repro.generators import random_network, random_pipeline, random_request
from repro.model import ProblemInstance
from repro.placement import (
    ClusterState,
    PlacementRequest,
    validate_placements,
)

UNCONTENDED = 1e9  # capacity factor: budgets are effectively infinite


def _shared_batch(count, *, n_modules=7, n_nodes=14, n_links=36, seed=29):
    network = random_network(n_nodes, n_links, seed=seed)
    return [
        ProblemInstance(
            pipeline=random_pipeline(n_modules, seed=300 + i),
            network=network,
            request=random_request(network, seed=400 + i, min_hop_distance=2),
            name=f"diff-{i}")
        for i in range(count)
    ]


class TestUncontendedExactness:
    @pytest.mark.parametrize("placer", ["place-greedy", "place-flow"])
    @pytest.mark.parametrize("objective", [Objective.MIN_DELAY,
                                           Objective.MAX_FRAME_RATE])
    def test_placer_reproduces_solve_many(self, placer, objective):
        instances = _shared_batch(6)
        direct = solve_many(instances, solver="elpc-tensor", objective=objective)
        placed = place_many(instances, placer=placer, objective=objective,
                            node_capacity_factor=UNCONTENDED,
                            link_capacity_factor=UNCONTENDED)
        assert placed.n_admitted == len(instances)
        for ref, item in zip(direct.items, placed.items):
            assert ref.ok and item.admitted
            if objective is Objective.MIN_DELAY:
                assert item.mapping.delay_ms == ref.mapping.delay_ms
            else:
                assert item.mapping.frame_rate_fps == \
                    ref.mapping.frame_rate_fps
            assert list(item.mapping.path) == list(ref.mapping.path)
            assert [list(g) for g in item.mapping.groups] == \
                [list(g) for g in ref.mapping.groups]

    @pytest.mark.parametrize("placer", ["place-greedy", "place-flow"])
    def test_uncontended_admits_in_any_priority_order(self, placer):
        """Priorities permute the packing order but, uncontended, must not
        change any mapping."""
        instances = _shared_batch(4)
        baseline = place_many(instances, placer=placer,
                              node_capacity_factor=UNCONTENDED,
                              link_capacity_factor=UNCONTENDED)
        prioritized = place_many(
            [PlacementRequest(inst, priority=float(len(instances) - i))
             for i, inst in enumerate(instances)],
            placer=placer,
            node_capacity_factor=UNCONTENDED,
            link_capacity_factor=UNCONTENDED)
        assert prioritized.n_admitted == baseline.n_admitted == len(instances)
        for a, b in zip(baseline.items, prioritized.items):
            assert a.mapping.delay_ms == b.mapping.delay_ms
            assert list(a.mapping.path) == list(b.mapping.path)


class TestOversubscribedDominance:
    @pytest.mark.parametrize("factor,fps", [(0.3, 1.0), (0.15, 1.0),
                                            (1.0, 4.0)])
    def test_flow_dominates_greedy(self, factor, fps):
        instances = _shared_batch(8, seed=31)
        network = instances[0].network

        def cluster():
            return ClusterState.from_network(
                network, node_capacity_factor=factor,
                link_capacity_factor=factor)

        greedy_cluster, flow_cluster = cluster(), cluster()
        greedy = place_many(instances, placer="place-greedy",
                            cluster=greedy_cluster, demand_fps=fps)
        flow = place_many(instances, placer="place-flow",
                          cluster=flow_cluster, demand_fps=fps)
        assert flow.n_admitted >= greedy.n_admitted
        common = set(greedy.admitted_indices()) & set(flow.admitted_indices())
        if common and greedy.objective is Objective.MIN_DELAY:
            assert flow.objective_total(common) <= \
                greedy.objective_total(common) * (1 + 1e-9)
        validate_placements(greedy.items, greedy_cluster)
        validate_placements(flow.items, flow_cluster)

    def test_flow_records_provenance(self):
        instances = _shared_batch(6, seed=37)
        result = place_many(instances, placer="place-flow",
                            node_capacity_factor=0.2,
                            link_capacity_factor=0.2)
        assert "used_fallback" in result.extras
        assert "flow_routed_fraction" in result.extras
        assert "rounding_order" in result.extras
        assert sorted(result.extras["rounding_order"]) == \
            list(range(len(instances)))

    def test_sequential_clusters_accumulate_commitments(self):
        """A cluster passed across two place_many calls must remember the
        first batch's commitments (the service admission-control shape)."""
        instances = _shared_batch(6, seed=41)
        cluster = ClusterState.from_network(instances[0].network,
                                            node_capacity_factor=0.4,
                                            link_capacity_factor=0.4)
        first = place_many(instances[:3], placer="place-greedy",
                           cluster=cluster)
        second = place_many(instances[3:], placer="place-greedy",
                            cluster=cluster)
        assert cluster.commits_total == first.n_admitted + second.n_admitted
        combined = list(first.items) + list(second.items)
        validate_placements(combined, cluster)
