"""Differential tests for the shared-memory parallel batch runtime.

Three layers:

* unit tests of the shared-memory plumbing — exporting / re-attaching a
  :class:`DenseNetworkView`, rebuilding a :class:`TransportNetwork` around an
  attached view, instance specs;
* the ``workers ∈ {1, 2, 4}`` bit-identity sweep across both ELPC
  engines over mixed feasible/infeasible, mixed-network batches (the PR's
  headline regression: ``workers > 1`` must *compose* with the tensor
  engine's group dispatch, not silently replace it);
* the batch error policy under both the sequential and the pool path — one
  pathological item (including an item raising an *unpicklable* exception in
  a worker) must not kill the campaign.
"""

import pickle

import numpy as np
import pytest

from repro.core import Objective, register_solver, solve_many
from repro.core.parallel import ParallelBatchRunner
from repro.core.registry import _REGISTRY
from repro.exceptions import SpecificationError
from repro.generators import random_network, random_pipeline, random_request
from repro.model import ProblemInstance, TransportNetwork
from repro.model.network import attach_shared_view, export_shared_view
from repro.model.serialization import InstanceSpec

ENGINES = ("elpc", "elpc-tensor")

_VIEW_ARRAYS = ("power", "adjacency", "bandwidth", "link_delay",
                "bandwidth_bits_per_s", "edge_u", "edge_v", "edge_indptr",
                "edge_bandwidth_bits_per_s", "edge_link_delay")


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


class TestSharedViewExportAttach:
    def test_round_trip_is_bit_identical(self):
        network = random_network(14, 30, seed=5)
        view = network.dense_view()
        shm, spec = export_shared_view(view, network_name=network.name)
        try:
            attached, attached_shm = attach_shared_view(spec)
            try:
                for name in _VIEW_ARRAYS:
                    original = getattr(view, name)
                    copy = getattr(attached, name)
                    assert copy.dtype == original.dtype
                    assert np.array_equal(copy, original)
                    assert not copy.flags.writeable
                assert attached.node_ids == view.node_ids
                assert attached.index_of == view.index_of
                assert attached.neighbor_lists == view.neighbor_lists
            finally:
                del attached
                attached_shm.close()
        finally:
            shm.close()
            shm.unlink()

    def test_spec_is_small_and_picklable(self):
        network = random_network(20, 60, seed=6)
        shm, spec = export_shared_view(network.dense_view())
        try:
            payload = pickle.dumps(spec)
            # The point of the spec: shipping it must cost a fraction of
            # shipping the network itself.
            assert len(payload) < len(pickle.dumps(network)) / 4
        finally:
            shm.close()
            shm.unlink()

    def test_from_dense_view_rebuilds_equivalent_network(self):
        network = random_network(12, 26, seed=7)
        view = network.dense_view()
        rebuilt = TransportNetwork.from_dense_view(view, name="rebuilt")
        assert rebuilt.dense_view() is view  # zero-copy: view installed as-is
        assert rebuilt.n_nodes == network.n_nodes
        assert rebuilt.n_links == network.n_links
        for a, b in zip(network.links(), rebuilt.links()):
            assert (a.start_node, a.end_node) == (b.start_node, b.end_node)
            assert a.bandwidth_mbps == b.bandwidth_mbps
            assert a.min_delay_ms == b.min_delay_ms
        for nid in network.node_ids():
            assert rebuilt.processing_power(nid) == network.processing_power(nid)

    def test_from_dense_view_edits_never_corrupt_callers_view(self):
        """Regression: scalar edits on the reconstructed network must swap in
        a patched copy-on-write view, never write through the shared arrays
        of the caller's (still cached) view."""
        network = random_network(12, 26, seed=8)
        view = network.dense_view()
        bw_before = view.bandwidth.copy()
        power_before = view.power.copy()
        rebuilt = TransportNetwork.from_dense_view(view)
        link = next(iter(rebuilt.links()))
        rebuilt.set_bandwidth(link.start_node, link.end_node,
                              link.bandwidth_mbps * 2.0)
        node_id = next(iter(rebuilt.node_ids()))
        rebuilt.set_processing_power(node_id,
                                     rebuilt.processing_power(node_id) * 3.0)
        patched = rebuilt.dense_view()
        assert patched is not view  # edits swapped in a fresh patched view
        np.testing.assert_array_equal(view.bandwidth, bw_before)
        np.testing.assert_array_equal(view.power, power_before)
        # The donor network still serves its original, untouched view.
        assert network.dense_view() is view
        # Unchanged arrays stay shared (copy-on-write, not a rebuild).
        assert patched.adjacency is view.adjacency

    def test_tensor_engines_solve_from_attached_view(self):
        """The `view=` entry point: an attached view drives the batched DPs
        zero-copy and reproduces the regular solve bit for bit."""
        from repro.core.tensor import (
            elpc_max_frame_rate_many,
            elpc_min_delay_many,
        )

        instances = _mixed_suite(6, n_networks=1, seed0=30)
        network = instances[0].network
        shm, spec = export_shared_view(network.dense_view())
        try:
            attached, attached_shm = attach_shared_view(spec)
            try:
                pipelines = [inst.pipeline for inst in instances]
                requests = [inst.request for inst in instances]
                for many in (elpc_min_delay_many, elpc_max_frame_rate_many):
                    plain = many(pipelines, network, requests)
                    via_view = many(pipelines, network, requests,
                                    view=attached)
                    for a, b in zip(plain, via_view):
                        if isinstance(a, Exception):
                            assert str(a) == str(b)
                        else:
                            assert a.path == b.path
                            assert a.objective_value == b.objective_value
            finally:
                del attached
                attached_shm.close()
        finally:
            shm.close()
            shm.unlink()

    def test_instance_spec_round_trip(self):
        [instance] = _mixed_suite(1)
        spec = InstanceSpec.from_instance(3, instance, "shm-key")
        assert spec.index == 3 and spec.network_key == "shm-key"
        resolved = spec.resolve(instance.network)
        assert resolved.pipeline is instance.pipeline
        assert resolved.network is instance.network
        assert resolved.request == instance.request
        assert resolved.name == instance.name


class TestWorkersBitIdentity:
    """The ``workers ∈ {1, 2, 4}`` sweep: every engine, both objectives."""

    @pytest.mark.parametrize("solver", ENGINES)
    @pytest.mark.parametrize("objective",
                             [Objective.MIN_DELAY, Objective.MAX_FRAME_RATE])
    def test_values_and_errors_identical_across_worker_counts(self, solver,
                                                              objective):
        instances = _mixed_suite()
        reference = solve_many(instances, solver=solver, objective=objective)
        assert reference.n_solved > 0
        if objective is Objective.MAX_FRAME_RATE:
            assert reference.n_failed > 0  # the sweep must mix in failures
        for workers in (2, 4):
            run = solve_many(instances, solver=solver, objective=objective,
                             workers=workers)
            assert run.workers == workers
            assert run.values() == reference.values()
            assert [i.error for i in run] == [i.error for i in reference]
            assert [i.name for i in run] == [i.name for i in reference]
            assert [i.index for i in run] == list(range(len(instances)))

    def test_tensor_engine_actually_used_under_workers(self):
        """Regression: the pool branch used to shadow the tensor dispatch."""
        instances = _mixed_suite(16, n_networks=1)
        run = solve_many(instances, solver="elpc-tensor",
                         objective=Objective.MIN_DELAY, workers=2,
                         chunk_size=4)
        solved = [item for item in run if item.ok]
        assert solved, "sweep must contain feasible min-delay items"
        for item in solved:
            assert item.mapping.algorithm == "elpc-tensor"
            # tensor_batch == 4 proves each worker chunk ran the *batched*
            # engine over its whole chunk, not per-item fallback solves.
            assert item.mapping.extras["tensor_batch"] == 4
            assert item.group_id is not None and item.group_size == 4

    def test_mixed_network_chunks_group_by_network(self):
        """Tensor chunks are packed per network, so groups stay large."""
        instances = _mixed_suite(24, n_networks=3)
        run = solve_many(instances, solver="elpc-tensor",
                         objective=Objective.MIN_DELAY, workers=2,
                         chunk_size=8)
        # 24 items round-robin over 3 networks -> 8 per network; the runner
        # reorders shippable items by network, so each chunk of 8 is one
        # pure same-network tensor group.
        assert all(item.group_size == 8 for item in run)
        reference = solve_many(instances, solver="elpc-tensor",
                               objective=Objective.MIN_DELAY)
        assert run.values() == reference.values()

    def test_parallel_mappings_reference_the_callers_network(self):
        """Workers detach their rebuilt network before pickling results and
        the parent re-attaches its own — the return path ships no network
        bytes, and callers get mappings over the very objects they passed."""
        instances = _mixed_suite(8)
        run = solve_many(instances, solver="elpc",
                         objective=Objective.MIN_DELAY, workers=2)
        for instance, item in zip(instances, run):
            assert item.mapping.network is instance.network
            assert item.mapping.delay_ms > 0  # recomputable after re-attach

    @pytest.mark.parametrize("bad", [0, -1])
    def test_invalid_chunk_size_rejected(self, bad):
        with pytest.raises(SpecificationError):
            solve_many(_mixed_suite(4), solver="elpc",
                       objective=Objective.MIN_DELAY, workers=2,
                       chunk_size=bad)

    def test_mappings_identical_not_just_values(self):
        instances = _mixed_suite(12)
        seq = solve_many(instances, solver="elpc",
                         objective=Objective.MIN_DELAY)
        par = solve_many(instances, solver="elpc",
                         objective=Objective.MIN_DELAY, workers=2)
        for a, b in zip(seq, par):
            assert a.mapping.path == b.mapping.path
            assert a.mapping.groups == b.mapping.groups
            assert a.mapping.delay_ms == b.mapping.delay_ms


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

    def test_parallel_chunks_expose_wall_time(self):
        instances = _mixed_suite(16)
        run = solve_many(instances, solver="elpc",
                         objective=Objective.MIN_DELAY, workers=2,
                         chunk_size=4)
        groups = run.group_times()
        assert len(groups) == 4  # 16 items / chunk_size 4
        assert sum(size for size, _wall in groups.values()) == len(instances)
        # Chunk ids are globally unique and sized like the chunks.
        assert all(size == 4 for size, _wall in groups.values())

    def test_group_ids_unique_across_parallel_tensor_chunks(self):
        instances = _mixed_suite(24, n_networks=3)
        run = solve_many(instances, solver="elpc-tensor",
                         objective=Objective.MIN_DELAY, workers=2,
                         chunk_size=6)
        by_group = {}
        for item in run:
            by_group.setdefault(item.group_id, []).append(item)
        for group_id, items in by_group.items():
            assert len(items) == items[0].group_size
            walls = {item.group_wall_s for item in items}
            assert len(walls) == 1


class TestTensorDispatchRespectsOverrides:
    def test_override_of_tensor_name_disables_group_dispatch(self):
        """Registry overrides always win: overriding "elpc-tensor" must route
        batches through the override, not the builtin group engine —
        sequentially and under workers alike."""
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


class _UnpicklableError(Exception):
    def __init__(self, message):
        super().__init__(message)
        self.payload = lambda: None  # lambdas cannot be pickled


def _exploding_solver(pipeline, network, request, **kwargs):
    if pipeline.n_modules % 2 == 0:
        raise _UnpicklableError("boom from a worker")
    from repro.core import get_solver

    return get_solver("elpc", Objective.MIN_DELAY)(pipeline, network, request,
                                                   **kwargs)


class TestErrorPolicy:
    """Unexpected exceptions are recorded per item, never raised or fatal."""

    @pytest.fixture()
    def exploding(self):
        register_solver("exploding", Objective.MIN_DELAY, _exploding_solver,
                        overwrite=True)
        yield "exploding"
        _REGISTRY.pop(("exploding", Objective.MIN_DELAY), None)

    def _suite_with_even_and_odd_pipelines(self):
        network = random_network(10, 20, seed=1)
        instances = []
        for i in range(8):
            instances.append(ProblemInstance(
                pipeline=random_pipeline(4 if i % 2 == 0 else 5, seed=i),
                network=network,
                request=random_request(network, seed=i, min_hop_distance=1),
                name=f"err-{i}"))
        return instances

    def test_sequential_records_unexpected_exception(self, exploding):
        instances = self._suite_with_even_and_odd_pipelines()
        run = solve_many(instances, solver=exploding,
                         objective=Objective.MIN_DELAY)
        assert run.n_solved == 4 and run.n_failed == 4
        for item in run:
            if item.ok:
                assert item.error is None and item.traceback is None
            else:
                assert "_UnpicklableError" in item.error
                assert "boom from a worker" in item.error
                assert "Traceback" in item.traceback

    def test_pool_records_unpicklable_exception(self, exploding):
        """The exception object cannot cross the process boundary; its
        description must — and the pool must survive."""
        instances = self._suite_with_even_and_odd_pipelines()
        run = solve_many(instances, solver=exploding,
                         objective=Objective.MIN_DELAY, workers=2)
        assert run.workers == 2
        assert run.n_solved == 4 and run.n_failed == 4
        sequential = solve_many(instances, solver=exploding,
                                objective=Objective.MIN_DELAY)
        assert [i.error for i in run] == [i.error for i in sequential]
        assert run.values() == sequential.values()

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


class TestPersistentRunner:
    def test_exports_cached_across_batches(self):
        instances = _mixed_suite(12, n_networks=2)
        with ParallelBatchRunner(workers=2) as runner:
            first = solve_many(instances, solver="elpc",
                               objective=Objective.MIN_DELAY, runner=runner)
            assert len(runner._exports) == 2
            second = solve_many(instances, solver="elpc-tensor",
                                objective=Objective.MIN_DELAY, runner=runner)
            assert len(runner._exports) == 2  # reused, not re-exported
            assert first.values() == second.values()
            assert first.workers == second.workers == 2
        assert runner._exports == {}

    def test_mutated_network_re_exported(self):
        instances = _mixed_suite(6, n_networks=1, nodes=8, links=14)
        network = instances[0].network
        ids = network.node_ids()
        u, v = next((a, b) for a in ids for b in ids
                    if a < b and not network.has_link(a, b))
        with ParallelBatchRunner(workers=2) as runner:
            solve_many(instances, solver="elpc",
                       objective=Objective.MIN_DELAY, runner=runner)
            [(_, _, stale_shm, stale_spec)] = runner._exports.values()
            network.connect(u, v, bandwidth_mbps=1000.0, min_delay_ms=0.01)
            after = solve_many(instances, solver="elpc",
                               objective=Objective.MIN_DELAY, runner=runner)
            # The stale export was evicted and unlinked on re-export; only
            # the fresh block remains.
            assert len(runner._exports) == 1
            [(_, _, fresh_shm, fresh_spec)] = runner._exports.values()
            assert fresh_spec.shm_name != stale_spec.shm_name
            reference = solve_many(instances, solver="elpc",
                                   objective=Objective.MIN_DELAY)
            assert after.values() == reference.values()
        assert runner._exports == {}

    def test_solver_registered_after_pool_start_falls_back_in_process(self):
        """Workers fork with a snapshot of the registry; a solver registered
        afterwards is unknown to them, and the chunk must come back for an
        in-process solve instead of recording bogus failures."""
        from repro.core import get_solver

        instances = _mixed_suite(6)
        with ParallelBatchRunner(workers=2) as runner:
            solve_many(instances, solver="elpc",
                       objective=Objective.MIN_DELAY, runner=runner)  # forks
            register_solver("late-registered", Objective.MIN_DELAY,
                            get_solver("elpc", Objective.MIN_DELAY),
                            overwrite=True)
            try:
                late = solve_many(instances, solver="late-registered",
                                  objective=Objective.MIN_DELAY, runner=runner)
            finally:
                _REGISTRY.pop(("late-registered", Objective.MIN_DELAY), None)
        reference = solve_many(instances, solver="elpc",
                               objective=Objective.MIN_DELAY)
        assert late.n_solved == reference.n_solved == len(instances)
        assert late.values() == reference.values()

    def test_closed_runner_rejected(self):
        runner = ParallelBatchRunner(workers=2)
        runner.close()
        with pytest.raises(SpecificationError):
            runner.solve(_mixed_suite(2), solver="elpc")
        runner.close()  # idempotent

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(SpecificationError):
            ParallelBatchRunner(workers=0)

    def test_malformed_network_export_falls_back_in_process(self):
        """A network whose dense view raises a *non*-ReproError during
        export must not abort the parallel campaign: the item is recorded
        exactly like workers=1 records it."""
        instances = _mixed_suite(4, seed0=60)
        poisoned_net = random_network(8, 14, seed=61)
        object.__setattr__(poisoned_net.node(poisoned_net.node_ids()[0]),
                           "processing_power", "not-a-power")
        broken = ProblemInstance(pipeline=random_pipeline(4, seed=62),
                                 network=poisoned_net,
                                 request=random_request(poisoned_net, seed=62,
                                                        min_hop_distance=1),
                                 name="malformed-net")
        batch = instances + [broken]
        sequential = solve_many(batch, solver="elpc-tensor",
                                objective=Objective.MIN_DELAY)
        parallel = solve_many(batch, solver="elpc-tensor",
                              objective=Objective.MIN_DELAY, workers=2)
        assert parallel.values() == sequential.values()
        assert [i.error for i in parallel] == [i.error for i in sequential]
        assert "ValueError" in parallel.items[-1].error

    def test_unexportable_network_falls_back_in_process(self):
        # An empty network has no dense view; the runner must solve such
        # items in-process with the sequential error strings.
        instances = _mixed_suite(4)
        from repro.model import EndToEndRequest

        broken = ProblemInstance(pipeline=random_pipeline(4, seed=9),
                                 network=TransportNetwork(),
                                 request=EndToEndRequest(source=0, destination=1),
                                 name="empty-net")
        batch = instances + [broken]
        sequential = solve_many(batch, solver="elpc",
                                objective=Objective.MIN_DELAY)
        parallel = solve_many(batch, solver="elpc",
                              objective=Objective.MIN_DELAY, workers=2)
        assert parallel.values() == sequential.values()
        assert [i.error for i in parallel] == [i.error for i in sequential]
        assert parallel.items[-1].error is not None


class TestComparisonHarnessUnderWorkers:
    def test_agreement_check_runs_on_pool(self):
        from repro.analysis import check_solver_agreement

        instances = _mixed_suite(9)
        report = check_solver_agreement(instances, workers=2)
        assert report.ok, [d.describe() for d in report.disagreements]
        assert report.workers == 2
        assert report.to_dict()["workers"] == 2

    def test_run_comparison_matches_sequential(self):
        from repro.analysis import run_comparison

        instances = _mixed_suite(8)
        seq = run_comparison(instances, Objective.MIN_DELAY,
                             ["elpc-tensor", "greedy"])
        par = run_comparison(instances, Objective.MIN_DELAY,
                             ["elpc-tensor", "greedy"], workers=2)
        for algorithm in ("elpc-tensor", "greedy"):
            assert seq.series(algorithm) == par.series(algorithm)


class TestStartMethodGuard:
    """Non-``fork`` start methods must fail fast, not run untested.

    The runtime is built on fork semantics (registry snapshot inheritance,
    shared resource tracker); ``_pool_context`` takes the platform and the
    platform-default start method as parameters so the spawn/forkserver
    verdicts are testable from Linux.
    """

    def test_linux_always_forks(self):
        from repro.core.parallel import _pool_context

        assert _pool_context(platform="linux").get_start_method() == "fork"

    @pytest.mark.parametrize("platform,method", [
        ("darwin", "spawn"),
        ("win32", "spawn"),
        ("darwin", "forkserver"),
    ])
    def test_spawn_and_forkserver_fail_fast(self, platform, method):
        from repro.core.parallel import _pool_context
        from repro.exceptions import UnsupportedStartMethodError

        with pytest.raises(UnsupportedStartMethodError) as excinfo:
            _pool_context(platform=platform, default_method=method)
        assert excinfo.value.start_method == method
        message = str(excinfo.value)
        assert method in message
        assert "workers=1" in message  # the actionable way out

    def test_explicit_fork_default_is_honoured_off_linux(self):
        from repro.core.parallel import _pool_context

        context = _pool_context(platform="darwin", default_method="fork")
        assert context.get_start_method() == "fork"

    def test_error_is_a_repro_error(self):
        """Callers catching ReproError (the CLI does) see the clear message."""
        from repro.exceptions import ReproError, UnsupportedStartMethodError

        assert issubclass(UnsupportedStartMethodError, ReproError)
