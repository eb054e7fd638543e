"""Differential tests: the tensor batch engine against the scalar ELPC
references.

The tensor engine (:mod:`repro.core.tensor`) promises to be *bit-identical*
to the scalar DPs (the test oracle) on every instance: same objective values,
same feasibility verdicts, same backtracked mappings, same DP tables.  This
suite pins that promise for ``"elpc-tensor"``:

* fixed-seed sweeps over generated instances with **exact** (``==``, not
  approximate) agreement between tensor and scalar results,
* hypothesis property tests over instance shapes, for both objectives and
  both cost-model variants,
* batch semantics of :func:`repro.core.batch.solve_many` with the tensor
  dispatch: same-network groups, heterogeneous (per-instance network)
  batches, ragged pipeline lengths, interleaved infeasible items, empty
  batches, multiprocessing fallback, and cross-solver parity.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    Objective,
    elpc_max_frame_rate,
    elpc_max_frame_rate_many,
    elpc_max_frame_rate_tensor,
    elpc_min_delay,
    elpc_min_delay_many,
    elpc_min_delay_tensor,
    solve_many,
)
from repro.core.mapping import PipelineMapping
from repro.exceptions import InfeasibleMappingError, SpecificationError
from repro.generators import (
    max_links,
    min_links_for_connectivity,
    random_network,
    random_pipeline,
    random_request,
)
from repro.model import ProblemInstance, assert_no_reuse

#: Outcome marker for infeasible solves, comparable across solvers.
INFEASIBLE = object()


def _objective_or_infeasible(solver, pipeline, network, request, **kwargs):
    try:
        mapping = solver(pipeline, network, request, **kwargs)
    except InfeasibleMappingError:
        return INFEASIBLE, None
    key = ("dp_value_ms" if "dp_value_ms" in mapping.extras else "dp_bottleneck_ms")
    return mapping.extras[key], mapping


def _make_instance(seed: int, n_modules: int, k_nodes: int, extra_links: int):
    """One deterministic random instance from shape parameters."""
    lo, hi = min_links_for_connectivity(k_nodes), max_links(k_nodes)
    n_links = min(lo + extra_links, hi)
    pipeline = random_pipeline(n_modules, seed=seed)
    network = random_network(k_nodes, n_links, seed=seed + 1)
    request = random_request(network, seed=seed + 2, min_hop_distance=1)
    return pipeline, network, request


def _assert_bit_identical(ref_solver, tensor_solver, pipeline, network,
                          request, **kwargs):
    """Tensor vs scalar: identical feasibility, *bit-identical* values."""
    ref_value, ref_mapping = _objective_or_infeasible(
        ref_solver, pipeline, network, request, **kwargs)
    tensor_value, tensor_mapping = _objective_or_infeasible(
        tensor_solver, pipeline, network, request, **kwargs)
    if ref_value is INFEASIBLE or tensor_value is INFEASIBLE:
        assert ref_value is tensor_value, (
            f"feasibility disagreement: scalar={ref_value!r} tensor={tensor_value!r}")
        return None, None
    assert tensor_value == ref_value, (
        f"objective not bit-identical: scalar={ref_value!r} tensor={tensor_value!r}")
    assert tensor_mapping.path == ref_mapping.path
    assert tensor_mapping.groups == ref_mapping.groups
    return ref_mapping, tensor_mapping


# --------------------------------------------------------------------------- #
# Fixed-seed sweep: exact agreement with the scalar reference
# --------------------------------------------------------------------------- #
class TestFixedSeedSweep:
    @pytest.mark.parametrize("seed", range(60))
    def test_min_delay_bit_identical(self, seed):
        pipeline, network, request = _make_instance(
            seed=seed * 41, n_modules=3 + seed % 6, k_nodes=5 + seed % 9,
            extra_links=seed % 12)
        ref, tensor = _assert_bit_identical(
            elpc_min_delay, elpc_min_delay_tensor, pipeline, network, request)
        if tensor is not None:
            assert tensor.algorithm == "elpc-tensor"
            assert tensor.extras["tensor_batch"] == 1
            assert tensor.extras["dp_finite_cells"] == ref.extras["dp_finite_cells"]

    @pytest.mark.parametrize("seed", range(60))
    def test_max_frame_rate_bit_identical(self, seed):
        pipeline, network, request = _make_instance(
            seed=seed * 59 + 1, n_modules=3 + seed % 4, k_nodes=6 + seed % 8,
            extra_links=seed % 14)
        ref, tensor = _assert_bit_identical(
            elpc_max_frame_rate, elpc_max_frame_rate_tensor,
            pipeline, network, request)
        if tensor is not None:
            assert_no_reuse(tensor.path)
            assert len(tensor.path) == pipeline.n_modules

    @pytest.mark.parametrize("seed", range(20))
    def test_min_delay_matches_scalar(self, seed):
        """The scalar objective value, against a second seed sweep."""
        pipeline, network, request = _make_instance(
            seed=seed * 23 + 7, n_modules=3 + seed % 5, k_nodes=5 + seed % 7,
            extra_links=seed % 9)
        s_value, _ = _objective_or_infeasible(
            elpc_min_delay, pipeline, network, request)
        t_value, _ = _objective_or_infeasible(
            elpc_min_delay_tensor, pipeline, network, request)
        if s_value is INFEASIBLE or t_value is INFEASIBLE:
            assert s_value is t_value
        else:
            assert t_value == s_value

    @pytest.mark.parametrize("seed", range(20))
    def test_max_frame_rate_matches_scalar(self, seed):
        pipeline, network, request = _make_instance(
            seed=seed * 31 + 5, n_modules=3 + seed % 4, k_nodes=6 + seed % 6,
            extra_links=seed % 8)
        s_value, _ = _objective_or_infeasible(
            elpc_max_frame_rate, pipeline, network, request)
        t_value, _ = _objective_or_infeasible(
            elpc_max_frame_rate_tensor, pipeline, network, request)
        if s_value is INFEASIBLE or t_value is INFEASIBLE:
            assert s_value is t_value
        else:
            assert t_value == s_value


# --------------------------------------------------------------------------- #
# Hypothesis property tests over instance shapes
# --------------------------------------------------------------------------- #
@st.composite
def instance_shapes(draw):
    seed = draw(st.integers(min_value=0, max_value=10**6))
    n_modules = draw(st.integers(min_value=2, max_value=8))
    k_nodes = draw(st.integers(min_value=2, max_value=14))
    extra_links = draw(st.integers(min_value=0, max_value=20))
    return seed, n_modules, k_nodes, extra_links


class TestHypothesisEquivalence:
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(shape=instance_shapes())
    def test_min_delay_property(self, shape):
        seed, n_modules, k_nodes, extra_links = shape
        pipeline, network, request = _make_instance(
            seed, n_modules, k_nodes, extra_links)
        _assert_bit_identical(elpc_min_delay, elpc_min_delay_tensor,
                              pipeline, network, request)

    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(shape=instance_shapes())
    def test_max_frame_rate_property(self, shape):
        seed, n_modules, k_nodes, extra_links = shape
        pipeline, network, request = _make_instance(
            seed, n_modules, k_nodes, extra_links)
        _assert_bit_identical(elpc_max_frame_rate, elpc_max_frame_rate_tensor,
                              pipeline, network, request)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(shape=instance_shapes())
    def test_min_delay_property_without_link_delay(self, shape):
        """Agreement must also hold for the literal Eq. 1 cost model."""
        seed, n_modules, k_nodes, extra_links = shape
        pipeline, network, request = _make_instance(
            seed, n_modules, k_nodes, extra_links)
        _assert_bit_identical(elpc_min_delay, elpc_min_delay_tensor,
                              pipeline, network, request,
                              include_link_delay=False)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(shape=instance_shapes())
    def test_max_frame_rate_property_without_link_delay(self, shape):
        seed, n_modules, k_nodes, extra_links = shape
        pipeline, network, request = _make_instance(
            seed, n_modules, k_nodes, extra_links)
        _assert_bit_identical(elpc_max_frame_rate,
                              elpc_max_frame_rate_tensor,
                              pipeline, network, request,
                              include_link_delay=False)

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(shape=instance_shapes(),
           batch=st.integers(min_value=1, max_value=6))
    def test_batched_solve_matches_per_item(self, shape, batch):
        """A whole batch over one network solves exactly like B single calls."""
        seed, n_modules, k_nodes, extra_links = shape
        _, network, _ = _make_instance(seed, n_modules, k_nodes, extra_links)
        pipelines, requests = [], []
        for b in range(batch):
            pipeline, _, _ = _make_instance(seed + 1000 * b + 1, 2 + (b + n_modules) % 7,
                                            k_nodes, extra_links)
            pipelines.append(pipeline)
            requests.append(random_request(network, seed=seed + b,
                                           min_hop_distance=1))
        entries = elpc_min_delay_many(pipelines, network, requests)
        assert len(entries) == batch
        for pipeline, request, entry in zip(pipelines, requests, entries):
            value, _ = _objective_or_infeasible(
                elpc_min_delay, pipeline, network, request)
            if isinstance(entry, InfeasibleMappingError):
                assert value is INFEASIBLE
            else:
                assert value == entry.extras["dp_value_ms"]


# --------------------------------------------------------------------------- #
# DP-table parity (keep_table)
# --------------------------------------------------------------------------- #
class TestTableParity:
    @pytest.mark.parametrize("seed", [0, 4, 11])
    def test_min_delay_tables_match(self, seed):
        pipeline, network, request = _make_instance(seed * 13, 5, 8, 6)
        ref = elpc_min_delay(pipeline, network, request, keep_table=True)
        tensor = elpc_min_delay_tensor(pipeline, network, request, keep_table=True)
        v_table, t_table = ref.extras["dp_table"], tensor.extras["dp_table"]
        assert v_table.node_ids == t_table.node_ids
        for j in range(pipeline.n_modules):
            for nid in v_table.node_ids:
                v_val, t_val = v_table.value(j, nid), t_table.value(j, nid)
                if math.isinf(v_val):
                    assert math.isinf(t_val), (j, nid)
                else:
                    assert t_val == v_val, (j, nid)

    @pytest.mark.parametrize("seed", [1, 6])
    def test_frame_rate_tables_match(self, seed):
        pipeline, network, request = _make_instance(seed * 17 + 2, 4, 9, 8)
        try:
            ref = elpc_max_frame_rate(pipeline, network, request,
                                          keep_table=True)
        except InfeasibleMappingError:
            with pytest.raises(InfeasibleMappingError):
                elpc_max_frame_rate_tensor(pipeline, network, request)
            return
        tensor = elpc_max_frame_rate_tensor(pipeline, network, request,
                                            keep_table=True)
        v_table, t_table = ref.extras["dp_table"], tensor.extras["dp_table"]
        for j in range(pipeline.n_modules):
            for nid in v_table.node_ids:
                v_val, t_val = v_table.value(j, nid), t_table.value(j, nid)
                if math.isinf(v_val):
                    assert math.isinf(t_val), (j, nid)
                else:
                    assert t_val == v_val, (j, nid)


# --------------------------------------------------------------------------- #
# solve_many tensor dispatch
# --------------------------------------------------------------------------- #
def _shared_network_suite(count, *, network=None, n_modules=None, seed0=0):
    network = network if network is not None else random_network(10, 24, seed=7)
    instances = []
    for s in range(count):
        n = n_modules if n_modules is not None else 3 + s % 6
        instances.append(ProblemInstance(
            pipeline=random_pipeline(n, seed=seed0 + s),
            network=network,
            request=random_request(network, seed=seed0 + s, min_hop_distance=1),
            name=f"shared-{s}"))
    return instances


class TestSolveManyTensorDispatch:
    def test_same_network_batch_matches_vec(self):
        instances = _shared_network_suite(12)
        for objective in (Objective.MIN_DELAY, Objective.MAX_FRAME_RATE):
            tensor = solve_many(instances, solver="elpc-tensor",
                                objective=objective)
            ref = solve_many(instances, solver="elpc", objective=objective)
            assert tensor.solver == "elpc-tensor"
            assert [item.index for item in tensor] == list(range(12))
            for t, v in zip(tensor, ref):
                assert t.ok == v.ok
                if t.ok:
                    assert (t.objective_value(objective)
                            == v.objective_value(objective))
                    assert t.mapping.algorithm == "elpc-tensor"

    def test_ragged_pipeline_lengths(self):
        """Pipelines of different lengths batch correctly (per-item columns)."""
        network = random_network(11, 30, seed=19)
        instances = [
            ProblemInstance(pipeline=random_pipeline(n, seed=50 + n),
                            network=network,
                            request=random_request(network, seed=60 + n,
                                                   min_hop_distance=1),
                            name=f"ragged-{n}")
            for n in (2, 9, 3, 7, 2, 11, 5)
        ]
        tensor = solve_many(instances, solver="elpc-tensor",
                            objective=Objective.MIN_DELAY)
        ref = solve_many(instances, solver="elpc",
                         objective=Objective.MIN_DELAY)
        assert tensor.values() == ref.values()

    def test_heterogeneous_networks_fall_back_per_group(self):
        """Every instance on its own network still matches the scalar DP."""
        instances = []
        for s in range(6):
            network = random_network(8, 16, seed=100 + s)
            instances.append(ProblemInstance(
                pipeline=random_pipeline(4, seed=s),
                network=network,
                request=random_request(network, seed=s, min_hop_distance=1),
                name=f"hetero-{s}"))
        tensor = solve_many(instances, solver="elpc-tensor",
                            objective=Objective.MIN_DELAY)
        scalar = solve_many(instances, solver="elpc",
                            objective=Objective.MIN_DELAY)
        for t, s_item in zip(tensor, scalar):
            assert t.ok == s_item.ok
            if t.ok:
                assert (t.objective_value(Objective.MIN_DELAY)
                        == s_item.objective_value(Objective.MIN_DELAY))

    def test_mixed_networks_preserve_input_order(self):
        """Two interleaved network groups re-scatter into input order."""
        net_a = random_network(9, 20, seed=1)
        net_b = random_network(9, 20, seed=2)
        instances = []
        for s in range(8):
            network = net_a if s % 2 == 0 else net_b
            instances.append(ProblemInstance(
                pipeline=random_pipeline(4, seed=s), network=network,
                request=random_request(network, seed=s, min_hop_distance=1),
                name=f"mix-{s}"))
        tensor = solve_many(instances, solver="elpc-tensor",
                            objective=Objective.MIN_DELAY)
        ref = solve_many(instances, solver="elpc",
                         objective=Objective.MIN_DELAY)
        assert [item.name for item in tensor] == [f"mix-{s}" for s in range(8)]
        assert tensor.values() == ref.values()

    def test_infeasible_items_recorded_not_raised(self):
        # 12-module pipelines cannot avoid reuse on 10-node networks, and the
        # feasible 3-module ones must still solve: mixed outcomes, one batch.
        network = random_network(10, 24, seed=7)
        instances = (_shared_network_suite(3, network=network, n_modules=12)
                     + _shared_network_suite(3, network=network, n_modules=3,
                                             seed0=40))
        result = solve_many(instances, solver="elpc-tensor",
                            objective=Objective.MAX_FRAME_RATE)
        assert [item.ok for item in result] == [False] * 3 + [True] * 3
        assert all(item.error for item in result if not item.ok)

    def test_empty_batch(self):
        result = solve_many([], solver="elpc-tensor",
                            objective=Objective.MIN_DELAY)
        assert len(result) == 0 and result.n_solved == 0

    def test_malformed_request_recorded_per_item(self):
        """An unknown endpoint in one item must not abort the batch.

        Regression: the eager endpoint validation used to raise out of the
        whole tensor group; the looped path has always recorded it per item.
        """
        from repro.model import EndToEndRequest

        network = random_network(10, 24, seed=7)
        good = _shared_network_suite(2, network=network, n_modules=4)
        bad = ProblemInstance(pipeline=random_pipeline(4, seed=9),
                              network=network,
                              request=EndToEndRequest(source=999, destination=0),
                              name="bad-endpoint")
        batch = [good[0], bad, good[1]]
        tensor = solve_many(batch, solver="elpc-tensor",
                            objective=Objective.MIN_DELAY)
        looped = solve_many(batch, solver="elpc",
                            objective=Objective.MIN_DELAY)
        assert [item.ok for item in tensor] == [True, False, True]
        assert "unknown source node 999" in tensor.items[1].error
        assert tensor.values() == looped.values()
        assert [item.error is None for item in tensor] \
            == [item.error is None for item in looped]

    def test_solver_kwargs_forwarded(self):
        instances = _shared_network_suite(4)
        with_mld = solve_many(instances, solver="elpc-tensor",
                              objective=Objective.MIN_DELAY)
        without = solve_many(instances, solver="elpc-tensor",
                             objective=Objective.MIN_DELAY,
                             include_link_delay=False)
        for a, b in zip(with_mld, without):
            assert (b.mapping.extras["dp_value_ms"]
                    <= a.mapping.extras["dp_value_ms"] + 1e-9)

    def test_workers_fall_back_to_per_item_solves(self):
        instances = _shared_network_suite(6)
        sequential = solve_many(instances, solver="elpc-tensor",
                                objective=Objective.MIN_DELAY)
        parallel = solve_many(instances, solver="elpc-tensor",
                              objective=Objective.MIN_DELAY, workers=2)
        assert parallel.workers == 2
        assert sequential.values() == parallel.values()


# --------------------------------------------------------------------------- #
# Batch API edge cases of the *_many functions themselves
# --------------------------------------------------------------------------- #
class TestManyFunctionSemantics:
    def test_shared_request_broadcast(self):
        network = random_network(9, 22, seed=5)
        request = random_request(network, seed=5, min_hop_distance=1)
        pipelines = [random_pipeline(4, seed=s) for s in range(3)]
        entries = elpc_min_delay_many(pipelines, network, request)
        assert len(entries) == 3
        for pipeline, entry in zip(pipelines, entries):
            assert isinstance(entry, PipelineMapping)
            direct = elpc_min_delay(pipeline, network, request)
            assert entry.extras["dp_value_ms"] == direct.extras["dp_value_ms"]

    def test_mismatched_request_count_rejected(self):
        network = random_network(6, 10, seed=5)
        request = random_request(network, seed=5)
        with pytest.raises(SpecificationError):
            elpc_min_delay_many([random_pipeline(3, seed=0)], network,
                                [request, request])

    def test_empty_input(self):
        network = random_network(6, 10, seed=5)
        assert elpc_min_delay_many([], network, []) == []
        assert elpc_max_frame_rate_many([], network, []) == []

    def test_all_infeasible_batch(self):
        """The DP is skipped entirely but per-item errors still line up."""
        network = random_network(6, 8, seed=9)
        request = random_request(network, seed=9, min_hop_distance=1)
        pipelines = [random_pipeline(8, seed=s) for s in range(3)]
        entries = elpc_max_frame_rate_many(pipelines, network, request)
        assert all(isinstance(e, InfeasibleMappingError) for e in entries)

    def test_runtime_and_batch_extras(self):
        instances = _shared_network_suite(5, n_modules=4)
        entries = elpc_min_delay_many([i.pipeline for i in instances],
                                      instances[0].network,
                                      [i.request for i in instances])
        for entry in entries:
            assert isinstance(entry, PipelineMapping)
            assert entry.extras["tensor_batch"] == 5
            assert entry.runtime_s > 0
