"""Tests for the batch solving API (:mod:`repro.core.batch`)."""

import pytest

from repro.core import Objective, elpc_min_delay, register_solver, solve_many
from repro.core.registry import _REGISTRY
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


def _mixed_suite(count=24, *, n_networks=3, nodes=10, links=20, seed0=0):
    """Mixed-network batch with feasible and (frame-rate-)infeasible items.

    Every third item gets an 11-module pipeline, which cannot map without
    node reuse onto a 10-node network — infeasible for the frame-rate
    objective, still feasible for min-delay.
    """
    networks = [random_network(nodes, links, seed=seed0 + s)
                for s in range(n_networks)]
    instances = []
    for i in range(count):
        network = networks[i % n_networks]
        n_modules = 11 if i % 3 == 2 else 5
        instances.append(ProblemInstance(
            pipeline=random_pipeline(n_modules, seed=seed0 + i),
            network=network,
            request=random_request(network, seed=seed0 + i, min_hop_distance=1),
            name=f"mixed-{i}"))
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


class TestPerGroupWallTimes:
    def test_tensor_groups_expose_wall_time(self):
        instances = _mixed_suite(18, n_networks=3)
        run = solve_many(instances, solver="elpc-tensor",
                         objective=Objective.MIN_DELAY)
        groups = run.group_times()
        assert len(groups) == 3  # one per distinct network
        assert sum(size for size, _wall in groups.values()) == len(instances)
        for item in run:
            assert item.group_wall_s is not None and item.group_wall_s >= 0.0
            size, wall = groups[item.group_id]
            assert item.group_size == size
            assert item.runtime_s == pytest.approx(wall / size)


class TestTensorDispatchOverrides:
    def test_override_of_tensor_name_disables_group_dispatch(self):
        """Registry overrides always win: overriding "elpc-tensor" must route
        batches through the override, not the builtin group engine."""
        from repro.core import get_solver

        calls = []
        original = get_solver("elpc-tensor", Objective.MIN_DELAY)

        def my_tensor(pipeline, network, request, **kwargs):
            calls.append(pipeline.n_modules)
            return original(pipeline, network, request, **kwargs)

        register_solver("elpc-tensor", Objective.MIN_DELAY, my_tensor,
                        overwrite=True)
        try:
            instances = _mixed_suite(6, n_networks=1, seed0=50)
            run = solve_many(instances, solver="elpc-tensor",
                             objective=Objective.MIN_DELAY)
            assert len(calls) == len(instances)  # override called per item
            assert all(item.group_id is None for item in run)
            reference_values = run.values()
        finally:
            register_solver("elpc-tensor", Objective.MIN_DELAY, original,
                            overwrite=True)
        # With the builtin restored, group dispatch engages again and the
        # values agree (the override wrapped the builtin).
        grouped = solve_many(instances, solver="elpc-tensor",
                             objective=Objective.MIN_DELAY)
        assert all(item.group_id is not None for item in grouped)
        assert grouped.values() == reference_values


def _exploding_solver(pipeline, network, request, **kwargs):
    if pipeline.n_modules % 2 == 0:
        raise RuntimeError("boom from a registered solver")
    return elpc_min_delay(pipeline, network, request, **kwargs)


class TestErrorPolicy:
    """Unexpected exceptions are recorded per item, never raised or fatal."""

    @pytest.fixture()
    def exploding(self):
        register_solver("exploding", Objective.MIN_DELAY, _exploding_solver,
                        overwrite=True)
        yield "exploding"
        _REGISTRY.pop(("exploding", Objective.MIN_DELAY), None)

    def test_sequential_records_unexpected_exception(self, exploding):
        network = random_network(10, 20, seed=1)
        instances = [ProblemInstance(
            pipeline=random_pipeline(4 if i % 2 == 0 else 5, seed=i),
            network=network,
            request=random_request(network, seed=i, min_hop_distance=1),
            name=f"err-{i}") for i in range(8)]
        run = solve_many(instances, solver=exploding,
                         objective=Objective.MIN_DELAY)
        assert run.n_solved == 4 and run.n_failed == 4
        for item in run:
            if item.ok:
                assert item.error is None and item.traceback is None
            else:
                assert item.error == ("RuntimeError: boom from a registered "
                                      "solver")
                assert "Traceback" in item.traceback

    def test_tensor_group_failure_recorded_per_item(self):
        # A malformed network (a non-numeric power smuggled past validation)
        # makes the tensor engine's dense-view build raise a plain
        # ValueError; the poisoned group must be recorded item by item while
        # the healthy group still solves.
        instances = _mixed_suite(8, n_networks=2, seed0=40)
        poisoned = instances[0].network  # items 0, 2, 4, 6
        object.__setattr__(poisoned.node(poisoned.node_ids()[0]),
                           "processing_power", "not-a-power")
        run = solve_many(instances, solver="elpc-tensor",
                         objective=Objective.MIN_DELAY)
        for i, item in enumerate(run):
            if i % 2 == 0:
                assert not item.ok
                assert "ValueError" in item.error
                assert item.traceback and "Traceback" in item.traceback
            else:
                assert item.ok
