"""Benchmark: warm-started re-planning under capacity churn.

The incremental engine (``ViewDelta`` journal + ``WarmState`` re-solve,
``repro churn``) exists so that a deployment whose capacities drift a little
per step does not pay a from-scratch DP per pipeline per step.  This file
pins that claim on a fixed churn replay (16 twelve-module pipelines over one
320-node / 800-link network, 12 steps editing ~1 % of the links each):

* every warm re-solve must be **bit-identical** to the cold re-solve it
  replaces (``mismatches_total == 0``) — this runs unconditionally, like
  every differential bar in the suite,
* warm-started re-planning must be **>= 3x** faster than full re-solve over
  the whole replay — a wall-clock ratio, honouring
  ``REPRO_SKIP_SPEEDUP_ASSERT=1`` on noisy shared runners,
* the timed metric is one warm re-solve pass over the drifted population
  (the steady-state hot path), so regressions in the dirty-column kernel
  show up in the regression gate.
"""

from __future__ import annotations

import os

import pytest

from repro.core import Objective, solve_many
from repro.service.loadtest import generate_workload
from repro.simulation import generate_churn_events, simulate_churn

_N_PIPELINES = 16
_N_MODULES = 12
_K_NODES = 320
_N_LINKS = 800
_STEPS = 12
_EDIT_FRACTION = 0.01
_SEED = 5
_SPEEDUP_FLOOR = 3.0


@pytest.fixture(scope="module")
def churn_run():
    instances = generate_workload(_N_PIPELINES, n_modules=_N_MODULES,
                                  n_nodes=_K_NODES, n_links=_N_LINKS,
                                  seed=_SEED)
    network = instances[0].network
    events = generate_churn_events(network, n_steps=_STEPS,
                                   edit_fraction=_EDIT_FRACTION, seed=_SEED)
    result = simulate_churn(network, instances, events, solver="elpc-tensor",
                            objective=Objective.MIN_DELAY, verify=True)
    return instances, result


def test_churn_replay_is_bit_identical(churn_run):
    """Unconditional differential bar: warm == cold at every step."""
    _instances, result = churn_run
    assert result.n_steps == _STEPS
    assert result.mismatches_total == 0
    assert result.delta_patches_total > 0  # edits journaled, not rebuilt
    assert all(step.n_edits > 0 for step in result.steps)


def test_churn_warm_speedup_floor(churn_run):
    """Wall-clock bar: warm re-planning >= 3x over full re-solve."""
    if os.environ.get("REPRO_SKIP_SPEEDUP_ASSERT") == "1":
        pytest.skip("ratio assertions disabled via REPRO_SKIP_SPEEDUP_ASSERT")
    _instances, result = churn_run
    assert result.speedup >= _SPEEDUP_FLOOR, (
        f"warm churn re-planning speedup {result.speedup:.2f}x fell below "
        f"the {_SPEEDUP_FLOOR}x floor (warm {result.warm_total_s:.3f}s vs "
        f"cold {result.cold_total_s:.3f}s over {result.n_steps} steps)")


@pytest.mark.benchmark(group="churn")
def test_churn_warm_resolve(benchmark, churn_run):
    """Timed metric: one warm re-solve pass over the drifted population.

    The prior is captured once and the drift applied once, so every
    benchmark round performs the same delta-driven recompute.
    """
    instances, result = churn_run
    network = instances[0].network
    prior = solve_many(instances, solver="elpc-tensor",
                       objective=Objective.MIN_DELAY, warm_start=True)
    for event in generate_churn_events(network, n_steps=1,
                                       edit_fraction=_EDIT_FRACTION,
                                       seed=_SEED + 1):
        event.apply(network)

    def run():
        return solve_many(instances, solver="elpc-tensor",
                          objective=Objective.MIN_DELAY, prior=prior)

    warm = benchmark(run)
    assert all(item.mapping is not None for item in warm.items)

    benchmark.extra_info["n_pipelines"] = _N_PIPELINES
    benchmark.extra_info["n_nodes"] = _K_NODES
    benchmark.extra_info["replay_speedup"] = round(result.speedup, 3)
    benchmark.extra_info["replay_mismatches"] = result.mismatches_total
    benchmark.extra_info["replay_staleness_mean"] = round(
        result.staleness_mean, 6)
