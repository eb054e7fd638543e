"""Unit tests for :mod:`repro.simulation.churn`'s warm-vs-cold differential."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core import Objective
from repro.core.mapping import PipelineMapping
from repro.model import (CommunicationLink, ComputingNode, EndToEndRequest,
                         Pipeline, TransportNetwork)
from repro.simulation import churn
from repro.simulation.churn import (generate_churn_events, plans_differ,
                                    simulate_churn)


@pytest.fixture
def tied_instance():
    """Two equal nodes and a 3-module pipeline whose two groupings on the
    path 0 -> 1 tie: module 1 computes equally fast on either node and its
    input and output messages have the same size."""
    network = TransportNetwork(
        nodes=[ComputingNode(node_id=0, processing_power=100.0),
               ComputingNode(node_id=1, processing_power=100.0)],
        links=[CommunicationLink(0, 1, bandwidth_mbps=80.0,
                                 min_delay_ms=1.0)])
    pipeline = Pipeline.from_stage_specs(
        source_bytes=1000, stages=[(10.0, 1000), (10.0, 0)])
    return pipeline, network, EndToEndRequest(source=0, destination=1)


def _grouped(pipeline, network, groups):
    return PipelineMapping(pipeline=pipeline, network=network, groups=groups,
                           path=[0, 1], objective=Objective.MIN_DELAY)


def test_plans_differ_sees_a_regrouping_on_the_same_path(tied_instance):
    pipeline, network, _request = tied_instance
    early = _grouped(pipeline, network, [[0], [1, 2]])
    late = _grouped(pipeline, network, [[0, 1], [2]])
    assert early.path == late.path
    assert early.objective_value == late.objective_value
    assert plans_differ(early, late)
    assert not plans_differ(early, _grouped(pipeline, network, [[0], [1, 2]]))
    assert plans_differ(early, None) and plans_differ(None, late)
    assert not plans_differ(None, None)


def test_churn_verify_counts_a_regrouped_warm_plan(tied_instance,
                                                   monkeypatch):
    """A warm re-plan that regroups the modules on the cold plan's path,
    at an equal delay, is still a mismatch."""
    pipeline, network, request = tied_instance
    groupings = ([[0], [1, 2]], [[0, 1], [2]])
    real_solve_many = churn.solve_many

    def regrouping_solve_many(instances, **kwargs):
        result = real_solve_many(instances, **kwargs)
        if kwargs.get("prior") is None:
            return result
        items = []
        for item in result.items:
            other = next(g for g in groupings if g != item.mapping.groups)
            items.append(replace(item, mapping=_grouped(pipeline, network,
                                                        other)))
        return replace(result, items=items)

    monkeypatch.setattr(churn, "solve_many", regrouping_solve_many)
    # Bandwidth edits keep the two groupings tied (both move one message
    # of the same size over the one link).
    events = generate_churn_events(network, n_steps=3, kinds=("bandwidth",),
                                   seed=1)
    result = simulate_churn(network, [(pipeline, network, request)], events,
                            verify=True)
    assert result.n_steps == 3
    assert result.mismatches_total == 3
