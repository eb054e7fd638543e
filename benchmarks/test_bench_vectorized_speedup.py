"""Benchmark: speedup of the tensor ELPC engine over the scalar reference.

The tensor engine, run one instance at a time (``elpc-tensor``), does the
same DP work as the scalar dynamic programs but moves every stage update from
Python-level dict/neighbor iteration into a handful of NumPy passes over the
CSR edge arrays.  This file records the speedup ratio across problem sizes
and asserts the acceptance bar: at ``k >= 50`` network nodes the tensor
min-delay DP must be at least 3x faster than the scalar one (in practice it
lands above 10x and grows with ``k``).

The per-solver wall times are measured through the same
:func:`repro.analysis.experiments.vectorized_speedup` driver the
``repro bench-scaling`` CLI uses, so the numbers printed there and asserted
here come from one code path.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis import vectorized_speedup
from repro.core import elpc_min_delay, elpc_min_delay_tensor
from repro.generators import random_network, random_pipeline, random_request

#: (modules, nodes, links) sweep; everything from index 1 on has k >= 50.
_SIZES = [(10, 30, 90), (20, 60, 240), (30, 120, 600)]


@pytest.fixture(scope="module")
def speedup_result():
    """One measured sweep shared by the assertions below (best of 2 passes)."""
    return vectorized_speedup(sizes=_SIZES, seed=11, repetitions=2)


@pytest.mark.benchmark(group="vectorized-speedup")
def test_vectorized_speedup_at_scale(benchmark, speedup_result):
    """Acceptance bar: >= 3x on the min-delay DP at every k >= 50 size."""
    pipeline = random_pipeline(20, seed=23)
    network = random_network(60, 240, seed=23)
    request = random_request(network, seed=23, min_hop_distance=2)
    elpc_min_delay_tensor(pipeline, network, request)  # warm the dense view
    benchmark(elpc_min_delay_tensor, pipeline, network, request)

    delay_speedups = speedup_result.delay_speedups()
    framerate_speedups = speedup_result.framerate_speedups()
    benchmark.extra_info["sizes"] = speedup_result.sizes
    benchmark.extra_info["delay_speedups"] = [round(x, 2) for x in delay_speedups]
    benchmark.extra_info["framerate_speedups"] = [round(x, 2)
                                                  for x in framerate_speedups]
    benchmark.extra_info["scalar_delay_s"] = speedup_result.scalar.delay_runtimes_s
    benchmark.extra_info["tensor_delay_s"] = speedup_result.tensor.delay_runtimes_s

    # Wall-clock ratios on shared CI runners carry noise; the measured margin
    # is ~3x the floor, but REPRO_SKIP_SPEEDUP_ASSERT=1 lets a throttled
    # environment keep the (always-asserted) equivalence checks without the
    # timing gate.
    if os.environ.get("REPRO_SKIP_SPEEDUP_ASSERT") == "1":
        pytest.skip("speedup ratio assertions disabled via REPRO_SKIP_SPEEDUP_ASSERT")
    for (m, k, l), ratio in zip(speedup_result.sizes, delay_speedups):
        if k >= 50:
            assert ratio >= 3.0, (
                f"tensor min-delay DP only {ratio:.1f}x faster than scalar "
                f"at size (modules={m}, nodes={k}, links={l}); expected >= 3x")
    # The frame-rate DP runs on the same engine; hold it to a softer floor
    # (its scalar loop does less per-edge work, so the ratio is smaller).
    for (m, k, l), ratio in zip(speedup_result.sizes, framerate_speedups):
        if k >= 50:
            assert ratio >= 1.5, (
                f"tensor frame-rate DP only {ratio:.1f}x faster at "
                f"(modules={m}, nodes={k}, links={l}); expected >= 1.5x")


@pytest.mark.benchmark(group="vectorized-speedup")
def test_scalar_reference_baseline(benchmark):
    """The scalar DP's runtime at the k=60 size, for the records."""
    pipeline = random_pipeline(20, seed=23)
    network = random_network(60, 240, seed=23)
    request = random_request(network, seed=23, min_hop_distance=2)
    mapping = benchmark(elpc_min_delay, pipeline, network, request)
    assert mapping.delay_ms > 0


def test_engines_agree_at_benchmark_sizes(speedup_result):
    """The timed runs must compare identical work: same optimum at every size."""
    from repro.analysis.experiments import _scaling_instances

    instances = _scaling_instances(_SIZES, seed=11)
    for instance in instances:
        scalar = elpc_min_delay(instance.pipeline, instance.network,
                                instance.request)
        tensor = elpc_min_delay_tensor(instance.pipeline, instance.network,
                                       instance.request)
        assert tensor.delay_ms == scalar.delay_ms
