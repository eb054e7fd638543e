"""Frame-rate infeasibility without an exponential pre-solve screen.

Whether a simple source→destination path with exactly ``n`` nodes exists is
NP-complete (:mod:`repro.core.reduction`), so no solver runs that search
before its own algorithm: the feasibility check keeps only its linear tests
and every frame-rate solver reports a missing path itself.  These tests pin
that down:

* long pipelines on a 32-node network are answered in milliseconds by the
  DP engines, also through a serving loop that must stay responsive;
* on small networks, whenever brute force finds no simple path with exactly
  ``n`` nodes, every frame-rate solver raises
  :class:`InfeasibleMappingError` instead of returning a mapping.
"""

from __future__ import annotations

import asyncio
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mapping import Objective
from repro.core.registry import available_solvers, get_solver
from repro.exceptions import InfeasibleMappingError
from repro.generators import line_network, random_network, random_pipeline
from repro.model import (EndToEndRequest, ProblemInstance,
                         check_framerate_instance)
from repro.service import ServiceConfig, SolveService
from repro.service.wire import SolveRequest

#: Every solver of the no-reuse frame-rate problem ("elpc-reuse" maps with
#: node reuse, a different problem).
NO_REUSE_SOLVERS = [name for name in available_solvers(Objective.MAX_FRAME_RATE)
                    if name != "elpc-reuse"]


def _stall_instance(n_modules: int):
    """A 32-node instance on which an exhaustive longest-path search stalls."""
    network = random_network(32, 90, seed=0)
    node_ids = network.node_ids()
    return (random_pipeline(n_modules, seed=n_modules), network,
            EndToEndRequest(node_ids[0], node_ids[1]))


@pytest.mark.parametrize("solver", ["elpc-tensor", "elpc"])
def test_long_pipelines_on_32_nodes_answered_within_a_second(solver):
    solve = get_solver(solver, Objective.MAX_FRAME_RATE)
    for n_modules in (12, 16, 24):
        pipeline, network, request = _stall_instance(n_modules)
        start = time.perf_counter()
        try:
            mapping = solve(pipeline, network, request)
        except InfeasibleMappingError as exc:  # the heuristic's own verdict
            assert "found no simple path" in str(exc)
        else:
            assert len(set(mapping.path)) == n_modules
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, (n_modules, elapsed)


def test_service_answers_min_delay_behind_a_long_framerate_item():
    pipeline, network, request = _stall_instance(12)
    framerate = SolveRequest(
        instance=ProblemInstance(pipeline=pipeline, network=network,
                                 request=request),
        objective=Objective.MAX_FRAME_RATE)
    delay = SolveRequest(
        instance=ProblemInstance(pipeline=random_pipeline(6, seed=1),
                                 network=network, request=request))

    async def scenario():
        service = SolveService(ServiceConfig())
        await service.start()
        try:
            first = asyncio.ensure_future(service.submit(framerate))
            await asyncio.sleep(0.05)
            start = time.perf_counter()
            second = await asyncio.wait_for(service.submit(delay), 2.0)
            elapsed = time.perf_counter() - start
            return await first, second, elapsed
        finally:
            await service.close()

    first, second, elapsed = asyncio.run(scenario())
    assert second["ok"], second
    assert elapsed < 2.0
    assert first["ok"], first


def test_pipeline_longer_than_longest_simple_path():
    # Line 0-1-2-3-4 with request 0->2: the longest simple path 0..2 has 3
    # nodes, so a 4-module pipeline cannot be placed without reuse.  The
    # linear checks pass; every solver finds the missing path itself.
    network = line_network(5, seed=2)
    pipeline = random_pipeline(4, seed=2)
    request = EndToEndRequest(0, 2)
    assert check_framerate_instance(pipeline, network, request).feasible
    for name in NO_REUSE_SOLVERS:
        solve = get_solver(name, Objective.MAX_FRAME_RATE)
        with pytest.raises(InfeasibleMappingError):
            solve(pipeline, network, request)


def _has_simple_path(network, source, destination, n_nodes) -> bool:
    """Brute force: does a simple path with exactly ``n_nodes`` nodes exist?"""

    def extend(path, seen):
        if len(path) == n_nodes:
            return path[-1] == destination
        return any(extend(path + [nxt], seen | {nxt})
                   for nxt in network.neighbors(path[-1]) if nxt not in seen)

    return extend([source], {source})


@st.composite
def _small_instances(draw):
    k = draw(st.integers(2, 8))
    # Sparse networks, so many (endpoint, length) pairs have no such path.
    links = draw(st.integers(k - 1, min(k - 1 + 4, k * (k - 1) // 2)))
    network = random_network(k, links, seed=draw(st.integers(0, 10_000)))
    node_ids = network.node_ids()
    source = draw(st.sampled_from(node_ids))
    destination = draw(st.sampled_from(node_ids))
    n_modules = draw(st.integers(2, k))
    pipeline = random_pipeline(n_modules, seed=draw(st.integers(0, 10_000)))
    return pipeline, network, EndToEndRequest(source, destination)


@settings(max_examples=80, deadline=None)
@given(_small_instances())
def test_no_simple_path_means_every_solver_raises(instance):
    pipeline, network, request = instance
    if _has_simple_path(network, request.source, request.destination,
                        pipeline.n_modules):
        return
    for name in NO_REUSE_SOLVERS:
        solve = get_solver(name, Objective.MAX_FRAME_RATE)
        with pytest.raises(InfeasibleMappingError):
            solve(pipeline, network, request)
