"""Tests for the batch solving API (:mod:`repro.core.batch`)."""

import pytest

from repro.core import Objective, elpc_min_delay, solve_many
from repro.exceptions import SpecificationError
from repro.generators import random_network, random_pipeline, random_request
from repro.model import EndToEndRequest, ProblemInstance


def _suite(count: int, *, n_modules: int = 5, nodes: int = 9, links: int = 18):
    instances = []
    for seed in range(count):
        network = random_network(nodes, links, seed=seed)
        instances.append(ProblemInstance(
            pipeline=random_pipeline(n_modules, seed=seed),
            network=network,
            request=random_request(network, seed=seed, min_hop_distance=1),
            name=f"batch-{seed}"))
    return instances


class TestSequentialBatches:
    def test_solves_all_instances_in_order(self):
        instances = _suite(6)
        result = solve_many(instances, solver="elpc-tensor",
                            objective=Objective.MIN_DELAY)
        assert len(result) == 6
        assert result.n_solved == 6 and result.n_failed == 0
        assert [item.index for item in result] == list(range(6))
        assert [item.name for item in result] == [i.name for i in instances]
        assert all(v is not None and v > 0 for v in result.values())

    def test_matches_direct_solver_calls(self):
        instances = _suite(5)
        batch = solve_many(instances, solver="elpc",
                           objective=Objective.MIN_DELAY)
        for inst, value in zip(instances, batch.values()):
            direct = elpc_min_delay(inst.pipeline, inst.network, inst.request)
            assert value == pytest.approx(direct.delay_ms)

    def test_accepts_triples(self):
        triples = [(i.pipeline, i.network, i.request) for i in _suite(3)]
        result = solve_many(triples, solver="elpc-tensor",
                            objective=Objective.MIN_DELAY)
        assert result.n_solved == 3
        assert all(item.name is None for item in result)

    def test_accepts_callable_solver(self):
        result = solve_many(_suite(3), solver=elpc_min_delay,
                            objective=Objective.MIN_DELAY)
        assert result.n_solved == 3
        assert result.solver == "elpc_min_delay"

    def test_records_infeasible_instances_without_raising(self):
        # 10-module pipelines cannot avoid reuse on 9-node networks.
        instances = _suite(3, n_modules=10)
        result = solve_many(instances, solver="elpc-tensor",
                            objective=Objective.MAX_FRAME_RATE)
        assert result.n_failed == 3
        assert all(item.error for item in result)
        assert result.values() == [None, None, None]

    def test_solver_kwargs_forwarded(self):
        instances = _suite(4)
        with_mld = solve_many(instances, solver="elpc-tensor",
                              objective=Objective.MIN_DELAY)
        without = solve_many(instances, solver="elpc-tensor",
                             objective=Objective.MIN_DELAY,
                             include_link_delay=False)
        for a, b in zip(with_mld, without):
            assert (b.mapping.extras["dp_value_ms"]
                    <= a.mapping.extras["dp_value_ms"] + 1e-9)

    def test_unknown_solver_fails_fast(self):
        for name in ("nope", "elpc-vec"):
            with pytest.raises(SpecificationError, match=name):
                solve_many(_suite(2), solver=name,
                           objective=Objective.MIN_DELAY)

    def test_unexpected_exception_recorded_per_item(self):
        def brittle(pipeline, network, request, **kwargs):
            if pipeline.n_modules > 5:
                raise ZeroDivisionError("synthetic numeric blow-up")
            from repro.core import elpc_min_delay
            return elpc_min_delay(pipeline, network, request, **kwargs)

        instances = _suite(2) + _suite(2, n_modules=7)
        result = solve_many(instances, solver=brittle,
                            objective=Objective.MIN_DELAY)
        assert result.n_solved == 2 and result.n_failed == 2
        for item in result:
            if item.ok:
                assert item.error is None and item.traceback is None
            else:
                assert item.error == ("ZeroDivisionError: synthetic numeric "
                                      "blow-up")
                assert "Traceback" in item.traceback

    def test_per_item_solves_carry_no_group(self):
        result = solve_many(_suite(3), solver="elpc",
                            objective=Objective.MIN_DELAY)
        assert all(item.group_id is None for item in result)
        assert all(item.group_size == 1 for item in result)
        assert result.group_times() == {}

    def test_bad_item_rejected(self):
        with pytest.raises(SpecificationError):
            solve_many([42], solver="elpc", objective=Objective.MIN_DELAY)

    def test_empty_batch(self):
        result = solve_many([], solver="elpc", objective=Objective.MIN_DELAY)
        assert len(result) == 0 and result.n_solved == 0


class TestParallelBatches:
    def test_workers_produce_identical_values(self):
        instances = _suite(6)
        sequential = solve_many(instances, solver="elpc",
                                objective=Objective.MIN_DELAY)
        parallel = solve_many(instances, solver="elpc",
                              objective=Objective.MIN_DELAY, workers=2)
        assert parallel.workers == 2
        for a, b in zip(sequential.values(), parallel.values()):
            assert b == pytest.approx(a)

    def test_single_item_batch_stays_in_process(self):
        result = solve_many(_suite(1), solver="elpc",
                            objective=Objective.MIN_DELAY, workers=4)
        assert result.workers == 1  # no pool spun up for one instance
        assert result.n_solved == 1

    def test_callable_solver_rejected_under_multiprocessing(self):
        with pytest.raises(SpecificationError):
            solve_many(_suite(3), solver=elpc_min_delay,
                       objective=Objective.MIN_DELAY, workers=2)

    def test_negative_workers_rejected(self):
        with pytest.raises(SpecificationError):
            solve_many(_suite(2), solver="elpc",
                       objective=Objective.MIN_DELAY, workers=-1)


class TestRunComparisonThroughBatches:
    def test_workers_match_sequential_comparison(self):
        from repro.analysis import run_comparison
        instances = _suite(4)
        seq = run_comparison(instances, Objective.MIN_DELAY, ["elpc", "greedy"])
        par = run_comparison(instances, Objective.MIN_DELAY, ["elpc", "greedy"],
                             workers=2)
        for algo in ("elpc", "greedy"):
            seq_series = seq.series(algo)
            par_series = par.series(algo)
            assert len(seq_series) == len(par_series) == 4
            for a, b in zip(seq_series, par_series):
                if a is None:
                    assert b is None
                else:
                    assert b == pytest.approx(a)
