"""Flush assembly of engine-built mappings (``core/tensor.py::_assemble``).

The tensor and warm engines build their mappings through
``PipelineMapping._trusted`` after one batched walk check per flush, instead
of re-validating every mapping hop by hop.  These tests pin both halves of
that contract: the per-item validation is gone from every ``elpc-tensor``
batch path, and the batched check still rejects a path that is not a walk —
while the public constructor keeps validating every mapping it builds.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import (Objective, PipelineMapping, mapping_from_assignment,
                        solve_many)
from repro.core import mapping as mapping_module
from repro.core.tensor import (_assemble, _min_delay_stages, _stage_arrays,
                               stage_view)
from repro.exceptions import SpecificationError
from repro.generators import random_network, random_pipeline, random_request

B = 6


@pytest.fixture
def batch():
    network = random_network(14, 30, seed=5)
    return [(random_pipeline(5 + b % 3, seed=40 + b), network,
             random_request(network, seed=60 + b, min_hop_distance=1))
            for b in range(B)]


@pytest.fixture
def count_validations(monkeypatch):
    """Count calls of ``validate_mapping_structure`` made by the mapping
    constructor, still running the real check."""
    calls = []
    real = mapping_module.validate_mapping_structure

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(mapping_module, "validate_mapping_structure",
                        counting)
    return calls


def _drift(network, seed):
    rng = np.random.default_rng(seed)
    for link in list(network.links())[::3]:
        network.set_bandwidth(link.start_node, link.end_node,
                              link.bandwidth_mbps * float(rng.uniform(0.7, 1.3)))


class TestNoPerItemValidation:
    @pytest.mark.parametrize("objective", list(Objective))
    def test_tensor_batches_skip_per_item_validation(self, batch, objective,
                                                     count_validations):
        network = batch[0][1]
        kwargs = {"solver": "elpc-tensor", "objective": objective}
        cold = solve_many(batch, **kwargs)
        first = solve_many(batch, warm_start=True, **kwargs)
        _drift(network, 1)
        resolved = solve_many(batch, prior=first, **kwargs)
        assert count_validations == []
        # The batches did build mappings, and the warm one re-solved every
        # item rather than reusing it.
        for result in (cold, first, resolved):
            assert result.n_failed < B
        assert resolved.warm_resolved == B

    def test_public_paths_still_validate(self, batch, count_validations):
        pipeline, network, _request = batch[0]
        a = min(network.node_ids())
        hop = network.neighbors(a)[0]
        mapping = mapping_from_assignment(
            pipeline, network, [a] * (pipeline.n_modules - 1) + [hop],
            objective=Objective.MIN_DELAY)
        PipelineMapping(pipeline=pipeline, network=network,
                        groups=mapping.groups, path=mapping.path,
                        objective=Objective.MIN_DELAY)
        assert len(count_validations) == 2
        far = next(v for v in network.node_ids()
                   if v != a and not network.has_link(a, v))
        with pytest.raises(SpecificationError, match="not a walk"):
            mapping_from_assignment(
                pipeline, network, [a] * (pipeline.n_modules - 1) + [far],
                objective=Objective.MIN_DELAY)
        with pytest.raises(SpecificationError, match="not a walk"):
            PipelineMapping(pipeline=pipeline, network=network,
                            groups=mapping.groups, path=[a, far],
                            objective=Objective.MIN_DELAY)
        assert len(count_validations) == 4


def _one_flush(batch):
    """Cold min-delay tables of the whole batch plus what _assemble needs."""
    network = batch[0][1]
    view = network.dense_view()
    pipelines = [p for p, _n, _r in batch]
    n_arr = np.array([p.n_modules for p in pipelines])
    src = np.array([view.index_of[r.source] for _p, _n, r in batch])
    dst = [view.index_of[r.destination] for _p, _n, r in batch]
    workload, message = _stage_arrays(pipelines, range(len(batch)),
                                      int(n_arr.max()))
    _values, pred, _same = _min_delay_stages(
        stage_view(view), len(batch), n_arr, src, workload, message,
        include_link_delay=True)
    return view, network, pipelines, pred, dst


def _assemble_all(view, network, pipelines, pred, dst):
    rows = list(range(len(pipelines)))
    return _assemble(view, network, Objective.MIN_DELAY, "elpc-tensor",
                     pipelines, pred, rows, dst, [{} for _ in rows],
                     runtime_s=0.0)


class TestKeptWalkGuard:
    def test_corrupted_predecessor_raises(self, batch):
        view, network, pipelines, pred, dst = _one_flush(batch)
        assert len(_assemble_all(view, network, pipelines, pred, dst)) == B
        # Item 2's last hop now comes from a node not linked to its
        # destination.
        item, n = 2, pipelines[2].n_modules
        far = next(c for c in range(view.n_nodes)
                   if c != dst[item] and not view.adjacency[c, dst[item]])
        pred[item, n - 1, dst[item]] = far
        with pytest.raises(SpecificationError, match="not a walk"):
            _assemble_all(view, network, pipelines, pred, dst)

    def test_missing_predecessor_raises(self, batch):
        view, network, pipelines, pred, dst = _one_flush(batch)
        item, n = 4, pipelines[4].n_modules
        pred[item, n - 1, dst[item]] = -1
        with pytest.raises(SpecificationError, match="not a walk"):
            _assemble_all(view, network, pipelines, pred, dst)

    @pytest.mark.parametrize("objective", list(Objective))
    def test_trusted_equals_public_construction(self, batch, objective):
        result = solve_many(batch, objective=objective)
        mappings = [item.mapping for item in result.items
                    if item.mapping is not None]
        assert mappings
        for trusted in mappings:
            public = PipelineMapping(
                pipeline=trusted.pipeline, network=trusted.network,
                groups=[list(g) for g in trusted.groups],
                path=list(trusted.path), objective=trusted.objective,
                algorithm=trusted.algorithm, runtime_s=trusted.runtime_s,
                allow_reuse=trusted.allow_reuse)
            assert trusted == public
            assert vars(trusted).keys() == vars(public).keys()
            assert trusted.allow_reuse is (objective is Objective.MIN_DELAY)
            assert type(trusted.groups) is list
            assert all(type(g) is list and all(type(m) is int for m in g)
                       for g in trusted.groups)
            assert type(trusted.path) is list
            assert trusted.path == mapping_from_assignment(
                trusted.pipeline, trusted.network, trusted.assignment(),
                objective=objective).path

    def test_trusted_mappings_are_frozen_with_own_extras(self, batch):
        result = solve_many(batch, objective=Objective.MIN_DELAY,
                            warm_start=True)
        mappings = [item.mapping for item in result.items]
        with pytest.raises(dataclasses.FrozenInstanceError):
            mappings[0].path = []
        before = [dict(m.extras) for m in mappings]
        mappings[0].extras["note"] = "mine"
        assert "note" not in mappings[1].extras
        assert [dict(m.extras) for m in mappings[1:]] == before[1:]
        assert len({id(m.extras) for m in mappings}) == len(mappings)
