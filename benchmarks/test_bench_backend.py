"""Benchmark: the tensor batch engine through its named NumPy backend.

Selecting ``backend="numpy"`` by name must cost nothing over the default:
the regression gate compares this file's means against the recorded
baseline.  The frame-rate engine is pinned against the vectorized reference
on the same batch shape.
"""

from __future__ import annotations

import pytest

from repro.core import Objective, solve_many
from repro.generators import random_network, random_pipeline, random_request
from repro.model import ProblemInstance

#: Same shape as the tensor-batch benchmark: 40-module pipelines on a sparse
#: 48-node network, solved as one B=32 batch.
_BATCH = 32
_N_MODULES = 40
_K_NODES = 48
_N_LINKS = 96


def _instances(count: int = _BATCH):
    network = random_network(_K_NODES, _N_LINKS, seed=11)
    instances = [
        ProblemInstance(pipeline=random_pipeline(_N_MODULES, seed=311 + b),
                        network=network,
                        request=random_request(network, seed=411 + b,
                                               min_hop_distance=2),
                        name=f"bench-backend-{b}")
        for b in range(count)
    ]
    network.dense_view()  # warm the shared view outside the timed region
    return instances


@pytest.mark.benchmark(group="backend")
def test_numpy_backend_named(benchmark):
    """Timed metric: the named numpy backend (the in-place fast path)."""
    instances = _instances()
    solve_many(instances, solver="elpc-tensor", objective=Objective.MIN_DELAY,
               backend="numpy")
    result = benchmark(solve_many, instances, solver="elpc-tensor",
                       objective=Objective.MIN_DELAY, backend="numpy")
    assert result.n_solved == len(instances)
    assert all(item.mapping.extras["backend"] == "numpy"
               for item in result if item.ok)


def test_backend_paths_agree_for_framerate():
    """The batched frame-rate engine agrees with the vectorized reference."""
    instances = _instances(16)
    tensor = solve_many(instances, solver="elpc-tensor",
                        objective=Objective.MAX_FRAME_RATE)
    looped = solve_many(instances, solver="elpc-vec",
                        objective=Objective.MAX_FRAME_RATE)
    assert tensor.values() == looped.values()
