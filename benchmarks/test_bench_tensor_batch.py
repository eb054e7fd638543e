"""Benchmark: batched throughput of the tensor ELPC engine.

The tensor engine (:mod:`repro.core.tensor`, solver name ``"elpc-tensor"``)
advances the DP columns of a whole batch of pipelines over one shared network
in stacked CSR edge-array passes, where the looped path solves them one
``solve_many([instance])`` call at a time.  This file records the
looped-vs-batched wall times across batch sizes and asserts the acceptance
bar: **at batch sizes B ≥ 32 on a k ≥ 40-node network the batched path must
be at least 5× faster than looping single solves** (measured ~5× on a
2-CPU container, growing with batch size and network sparsity).

The timings come from the same
:func:`repro.analysis.experiments.tensor_batch_speedup` driver the
``repro bench-batch`` CLI uses, so the numbers printed there and asserted
here come from one code path — and the driver cross-checks every objective
value between the two paths, so the timing claim can never outlive the
equivalence claim.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis import tensor_batch_speedup
from repro.core import Objective, solve_many
from repro.generators import random_network, random_pipeline, random_request
from repro.model import ProblemInstance

#: Benchmark shape: a sparse (Internet-like) 48-node topology and 40-module
#: pipelines; every batch size from index 1 on is >= 32.
_BATCH_SIZES = (8, 32, 64)
_N_MODULES = 40
_K_NODES = 48
_N_LINKS = 96


@pytest.fixture(scope="module")
def speedup_result():
    """One measured sweep shared by the assertions below (best of 3 passes)."""
    return tensor_batch_speedup(batch_sizes=_BATCH_SIZES, n_modules=_N_MODULES,
                                k_nodes=_K_NODES, n_links=_N_LINKS,
                                seed=11, repetitions=3)


def _batch_instances(count: int):
    network = random_network(_K_NODES, _N_LINKS, seed=11)
    instances = [
        ProblemInstance(pipeline=random_pipeline(_N_MODULES, seed=111 + b),
                        network=network,
                        request=random_request(network, seed=211 + b,
                                               min_hop_distance=2),
                        name=f"bench-tensor-{b}")
        for b in range(count)
    ]
    network.dense_view()
    return instances


def _looped(instances):
    """One single-instance tensor solve per item (the looped path)."""
    return [solve_many([instance], solver="elpc-tensor",
                       objective=Objective.MIN_DELAY)
            for instance in instances]


@pytest.mark.benchmark(group="tensor-batch")
def test_tensor_batch_solve(benchmark, speedup_result):
    """Timed metric: one B=32 batch through the tensor engine, plus the bar."""
    instances = _batch_instances(32)
    solve_many(instances, solver="elpc-tensor", objective=Objective.MIN_DELAY)

    result = benchmark(solve_many, instances, solver="elpc-tensor",
                       objective=Objective.MIN_DELAY)
    assert result.n_solved == len(instances)

    speedups = speedup_result.speedups()
    benchmark.extra_info["batch_sizes"] = speedup_result.batch_sizes
    benchmark.extra_info["speedups"] = [round(x, 2) for x in speedups]
    benchmark.extra_info["looped_s"] = speedup_result.looped_s
    benchmark.extra_info["tensor_s"] = speedup_result.tensor_s

    # The two paths must agree on every solved value regardless of timing.
    assert speedup_result.value_mismatches == 0

    # Wall-clock ratios on shared CI runners carry noise; the measured margin
    # is ~20% above the floor, but REPRO_SKIP_SPEEDUP_ASSERT=1 lets a
    # throttled environment keep the equivalence checks without the timing
    # gate (the CI regression script still compares means against the
    # checked-in baseline).
    if os.environ.get("REPRO_SKIP_SPEEDUP_ASSERT") == "1":
        pytest.skip("speedup ratio assertions disabled via "
                    "REPRO_SKIP_SPEEDUP_ASSERT")
    for B, ratio in zip(speedup_result.batch_sizes, speedups):
        if B >= 32:
            assert ratio >= 5.0, (
                f"tensor batch engine only {ratio:.1f}x faster than looped "
                f"single solves at B={B} (modules={_N_MODULES}, nodes={_K_NODES}, "
                f"links={_N_LINKS}); expected >= 5x")


@pytest.mark.benchmark(group="tensor-batch")
def test_looped_vec_reference_baseline(benchmark):
    """The looped single-solve wall time at B=32, for the records."""
    instances = _batch_instances(32)
    _looped(instances)
    results = benchmark(_looped, instances)
    assert sum(result.n_solved for result in results) == len(instances)


def test_engines_agree_at_benchmark_sizes():
    """The timed runs compare identical work: same values item by item."""
    instances = _batch_instances(max(_BATCH_SIZES))
    tensor = solve_many(instances, solver="elpc-tensor",
                        objective=Objective.MIN_DELAY)
    looped = [v for result in _looped(instances) for v in result.values()]
    scalar = solve_many(instances, solver="elpc",
                        objective=Objective.MIN_DELAY)
    for t, l, s in zip(tensor.values(), looped, scalar.values()):
        assert t == l == s
