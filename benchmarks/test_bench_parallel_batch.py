"""Benchmark: small-instance batch throughput on the shared-memory runtime.

The parallel runtime (:mod:`repro.core.parallel`, behind
``solve_many(workers=N)``) exists for exactly one regime: **many small
instances** (k ≈ 20-node networks, B ≥ 256 per batch), where the old
per-item-pickling pool lost to its own serialisation costs.  This file
records the sequential-vs-parallel wall times of that workload and asserts
the PR's acceptance bar: **workers=4 must be at least 2× faster than
workers=1 on a B=256 / k=20 batch**, with results bit-identical to the
sequential path for both ELPC engines.

The timings come from the same
:func:`repro.analysis.experiments.parallel_batch_speedup` driver the library
exposes, so the numbers asserted here and printed by users come from one
code path — and the driver cross-checks every objective value between the
sequential and pooled runs, so the timing claim can never outlive the
equivalence claim.

Like the other speedup benches, the wall-clock ratio assertion is skipped
when ``REPRO_SKIP_SPEEDUP_ASSERT=1`` (noisy shared runners) — and
additionally when the machine has fewer than 4 CPUs, where a 4-worker pool
cannot physically beat a sequential run; the bit-identity assertions always
run.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis import parallel_batch_speedup
from repro.core import Objective, solve_many
from repro.core.parallel import ParallelBatchRunner
from repro.generators import random_network, random_pipeline, random_request
from repro.model import ProblemInstance

#: Acceptance-bar shape: B=256 8-module pipelines over eight 20-node /
#: 40-link networks (round-robin), workers 1 vs 4.
_BATCH_SIZE = 256
_N_MODULES = 8
_K_NODES = 20
_N_LINKS = 40
_N_NETWORKS = 8
_WORKERS = 4
_ENGINES = ("elpc", "elpc-tensor")


@pytest.fixture(scope="module")
def speedup_result():
    """One measured workers ∈ {1, 4} sweep shared by the assertions below."""
    return parallel_batch_speedup(worker_counts=(1, _WORKERS),
                                  batch_size=_BATCH_SIZE,
                                  n_modules=_N_MODULES, k_nodes=_K_NODES,
                                  n_links=_N_LINKS, n_networks=_N_NETWORKS,
                                  seed=23, repetitions=2)


def _batch_instances(count=_BATCH_SIZE):
    networks = [random_network(_K_NODES, _N_LINKS, seed=23 + i)
                for i in range(_N_NETWORKS)]
    instances = []
    for b in range(count):
        network = networks[b % _N_NETWORKS]
        instances.append(ProblemInstance(
            pipeline=random_pipeline(_N_MODULES, seed=123 + b),
            network=network,
            request=random_request(network, seed=223 + b, min_hop_distance=1),
            name=f"bench-parallel-{b}"))
    for network in networks:
        network.dense_view()
    return instances


@pytest.mark.benchmark(group="parallel-batch")
def test_parallel_batch_solve(benchmark, speedup_result):
    """Timed metric: one B=256 batch on a warm 2-worker runner, plus the bar."""
    instances = _batch_instances()
    with ParallelBatchRunner(workers=2) as runner:
        solve_many(instances, solver="elpc-tensor",
                   objective=Objective.MIN_DELAY, runner=runner)  # warm-up
        result = benchmark(solve_many, instances, solver="elpc-tensor",
                           objective=Objective.MIN_DELAY, runner=runner)
    assert result.n_solved == len(instances)
    assert result.workers == 2

    benchmark.extra_info["worker_counts"] = speedup_result.worker_counts
    benchmark.extra_info["wall_s"] = speedup_result.wall_s
    benchmark.extra_info["speedups"] = [round(x, 2)
                                        for x in speedup_result.speedups()]

    # The pooled runs must agree with the sequential reference regardless of
    # timing.
    assert speedup_result.value_mismatches == 0

    if os.environ.get("REPRO_SKIP_SPEEDUP_ASSERT") == "1":
        pytest.skip("speedup ratio assertions disabled via "
                    "REPRO_SKIP_SPEEDUP_ASSERT")
    if (os.cpu_count() or 1) < _WORKERS:
        pytest.skip(f"machine has {os.cpu_count()} CPU(s); a {_WORKERS}-worker "
                    "pool cannot beat sequential wall time here")
    for workers, ratio in zip(speedup_result.worker_counts,
                              speedup_result.speedups()):
        if workers >= _WORKERS:
            assert ratio >= 2.0, (
                f"parallel runtime only {ratio:.2f}x faster than sequential "
                f"at workers={workers} (B={_BATCH_SIZE}, k={_K_NODES}, "
                f"modules={_N_MODULES}); expected >= 2x")


@pytest.mark.benchmark(group="parallel-batch")
def test_sequential_reference_baseline(benchmark):
    """The sequential elpc-tensor wall time at B=256, for the records."""
    instances = _batch_instances()
    solve_many(instances, solver="elpc-tensor", objective=Objective.MIN_DELAY)
    result = benchmark(solve_many, instances, solver="elpc-tensor",
                       objective=Objective.MIN_DELAY)
    assert result.n_solved == len(instances)


def test_engines_bit_identical_under_workers():
    """Both ELPC engines: workers=4 values/errors match workers=1."""
    instances = _batch_instances()
    for solver in _ENGINES:
        sequential = solve_many(instances, solver=solver,
                                objective=Objective.MIN_DELAY)
        parallel = solve_many(instances, solver=solver,
                              objective=Objective.MIN_DELAY, workers=_WORKERS)
        assert parallel.workers == _WORKERS
        assert parallel.values() == sequential.values(), solver
        assert ([item.error for item in parallel]
                == [item.error for item in sequential]), solver
