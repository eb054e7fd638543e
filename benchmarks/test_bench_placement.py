"""Benchmark: capacity-aware joint placement vs capacity-blind sequential.

The placement subsystem (:mod:`repro.placement`, ``repro place``) exists to
admit *more* of a contended batch than the obvious baseline: solve every
pipeline on the full network as if it were alone (:func:`repro.solve_many`)
and then admit mappings first-come-first-served until the cluster's budgets
run out.  That baseline is capacity-blind — its mappings pile onto the same
fast nodes, so the ledger fills after a few commits even though plenty of
aggregate capacity remains.

This file pins that claim on a fixed moderately-contended scenario (16
ten-module pipelines over one 20-node cluster at 0.3x capacity):

* ``place-greedy`` (sequential packing, each solve on the *residual*
  cluster) must admit **strictly more** requests than the capacity-blind
  baseline,
* ``place-flow`` (joint min-cost max-flow) must admit at least as many as
  ``place-greedy``,
* the batch-level validator must replay every accepted set clean.

These quality assertions run unconditionally — unlike the wall-clock
speedup benches there is no ``REPRO_SKIP_SPEEDUP_ASSERT`` escape hatch,
because admission counts on a fixed seed are deterministic on any runner.
The timed metric is the full ``place-flow`` run (flow build + SSP rounds +
rounding + packing fallback) so regressions in the optimizer's cost show up
in the regression gate.
"""

from __future__ import annotations

import pytest

from repro.core import Objective, place_many, solve_many
from repro.exceptions import CapacityError
from repro.generators import random_network, random_pipeline, random_request
from repro.model import ProblemInstance
from repro.placement import ClusterState, validate_placements

#: Fixed contended scenario: the hierarchy blind < greedy <= flow is stable
#: on this seed (blind=2, greedy=5, flow=6 at authoring time).
_COUNT = 16
_N_MODULES = 10
_K_NODES = 20
_N_LINKS = 50
_SEED = 17
_CAPACITY_FACTOR = 0.3
_DEMAND_FPS = 1.0


def _contended_batch():
    network = random_network(_K_NODES, _N_LINKS, seed=_SEED)
    instances = [
        ProblemInstance(pipeline=random_pipeline(_N_MODULES, seed=900 + i),
                        network=network,
                        request=random_request(network, seed=1000 + i,
                                               min_hop_distance=2),
                        name=f"bench-place-{i}")
        for i in range(_COUNT)
    ]
    network.dense_view()
    return instances


def _fresh_cluster(network):
    return ClusterState.from_network(
        network, node_capacity_factor=_CAPACITY_FACTOR,
        link_capacity_factor=_CAPACITY_FACTOR)


def _blind_sequential(instances, cluster):
    """The baseline: uncontended per-pipeline optima, admitted first-come
    first-served while they still fit — no mapping ever adapts."""
    direct = solve_many(instances, solver="elpc-tensor",
                        objective=Objective.MIN_DELAY)
    admitted = []
    for item in direct.items:
        if item.mapping is None:
            continue
        try:
            cluster.commit(cluster.demand_of(item.mapping,
                                             demand_fps=_DEMAND_FPS))
        except CapacityError:
            continue
        admitted.append(item)
    return admitted


@pytest.fixture(scope="module")
def placement_runs():
    instances = _contended_batch()
    network = instances[0].network

    blind_cluster = _fresh_cluster(network)
    blind = _blind_sequential(instances, blind_cluster)

    greedy_cluster = _fresh_cluster(network)
    greedy = place_many(instances, placer="place-greedy",
                        cluster=greedy_cluster, demand_fps=_DEMAND_FPS)

    flow_cluster = _fresh_cluster(network)
    flow = place_many(instances, placer="place-flow",
                      cluster=flow_cluster, demand_fps=_DEMAND_FPS)

    return (instances, blind, blind_cluster, greedy, greedy_cluster,
            flow, flow_cluster)


def test_placement_quality_hierarchy(placement_runs):
    """Unconditional acceptance bar: blind < greedy <= flow, all validated."""
    (_, blind, blind_cluster, greedy, greedy_cluster,
     flow, flow_cluster) = placement_runs

    assert greedy.n_admitted > len(blind), (
        f"capacity-aware packing ({greedy.n_admitted}) must beat the "
        f"capacity-blind baseline ({len(blind)})")
    assert flow.n_admitted >= greedy.n_admitted
    # Objective over the placers' common admitted set: joint optimization
    # must not pay for its extra admissions with worse shared mappings.
    common = set(greedy.admitted_indices()) & set(flow.admitted_indices())
    assert flow.objective_total(common) <= \
        greedy.objective_total(common) * (1 + 1e-9)

    blind_cluster.validate()
    validate_placements(greedy.items, greedy_cluster)
    validate_placements(flow.items, flow_cluster)


@pytest.mark.benchmark(group="placement")
def test_placement_flow_joint(benchmark, placement_runs):
    """Timed metric: one full place-flow run over the contended batch."""
    (instances, blind, _, greedy, _, flow, _) = placement_runs

    def run():
        return place_many(instances, placer="place-flow",
                          node_capacity_factor=_CAPACITY_FACTOR,
                          link_capacity_factor=_CAPACITY_FACTOR,
                          demand_fps=_DEMAND_FPS)

    result = benchmark(run)
    assert result.n_admitted == flow.n_admitted

    benchmark.extra_info["batch_size"] = _COUNT
    benchmark.extra_info["blind_admitted"] = len(blind)
    benchmark.extra_info["greedy_admitted"] = greedy.n_admitted
    benchmark.extra_info["flow_admitted"] = flow.n_admitted
    benchmark.extra_info["flow_objective_total_ms"] = round(
        flow.objective_total(), 3)
    benchmark.extra_info["used_fallback"] = bool(
        flow.extras.get("used_fallback"))


@pytest.mark.benchmark(group="placement")
def test_placement_greedy_packing(benchmark, placement_runs):
    """Timed metric: sequential capacity-aware packing of the same batch."""
    (instances, _, _, greedy, _, _, _) = placement_runs

    def run():
        return place_many(instances, placer="place-greedy",
                          node_capacity_factor=_CAPACITY_FACTOR,
                          link_capacity_factor=_CAPACITY_FACTOR,
                          demand_fps=_DEMAND_FPS)

    result = benchmark(run)
    assert result.n_admitted == greedy.n_admitted

    benchmark.extra_info["batch_size"] = _COUNT
    benchmark.extra_info["greedy_admitted"] = greedy.n_admitted
