"""Differential tests: the tensor ELPC engine, one instance at a time,
against the scalar reference.

The single-instance tensor solvers (:func:`elpc_min_delay_tensor` /
:func:`elpc_max_frame_rate_tensor`, batches of one through
:mod:`repro.core.tensor`) promise to be *drop-in* replacements for the
scalar dynamic programs: identical objective values,
identical feasibility behaviour, and — because they replicate the scalar
floating-point operation order and tie-breaking — identical DP tables bit for
bit.  This suite locks that promise in three ways:

* a fixed-seed sweep of 200 random instances (100 per objective) asserting
  exact (``==``) value and feasibility agreement,
* hypothesis property tests drawing instance shapes (pipeline length, node
  count, link density, seeds) from strategies, and
* agreement with the exhaustive oracles on small instances (the tensor
  min-delay DP must be exact, and the tensor frame-rate heuristic must
  never beat the true optimum).
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    elpc_max_frame_rate,
    elpc_max_frame_rate_tensor,
    elpc_min_delay,
    elpc_min_delay_tensor,
    exhaustive_max_frame_rate,
    exhaustive_min_delay,
)
from repro.exceptions import InfeasibleMappingError
from repro.generators import (
    max_links,
    min_links_for_connectivity,
    random_network,
    random_pipeline,
    random_request,
)
from repro.model import assert_no_reuse

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


def _assert_agreement(scalar_solver, tensor_solver, pipeline, network, request,
                      **kwargs):
    """Core differential assertion: same feasibility, same objective value."""
    scalar_value, scalar_mapping = _objective_or_infeasible(
        scalar_solver, pipeline, network, request, **kwargs)
    tensor_value, tensor_mapping = _objective_or_infeasible(
        tensor_solver, pipeline, network, request, **kwargs)
    if scalar_value is INFEASIBLE or tensor_value is INFEASIBLE:
        assert scalar_value is tensor_value, (
            f"feasibility disagreement: scalar={scalar_value!r} tensor={tensor_value!r}")
        return None, None
    assert tensor_value == scalar_value, (
        f"objective disagreement: scalar={scalar_value!r} tensor={tensor_value!r}")
    return scalar_mapping, tensor_mapping


# --------------------------------------------------------------------------- #
# Fixed-seed sweep: 200 generated instances with exact agreement
# --------------------------------------------------------------------------- #
class TestFixedSeedSweep:
    @pytest.mark.parametrize("seed", range(100))
    def test_min_delay_agreement(self, seed):
        pipeline, network, request = _make_instance(
            seed=seed * 37, n_modules=3 + seed % 6, k_nodes=5 + seed % 9,
            extra_links=seed % 12)
        scalar, tensor = _assert_agreement(
            elpc_min_delay, elpc_min_delay_tensor, pipeline, network, request)
        if tensor is not None:
            # The engines also agree on the realised mapping cost, not just
            # the DP cell value.
            assert tensor.delay_ms == scalar.delay_ms
            assert tensor.path[0] == request.source
            assert tensor.path[-1] == request.destination

    @pytest.mark.parametrize("seed", range(100))
    def test_max_frame_rate_agreement(self, seed):
        pipeline, network, request = _make_instance(
            seed=seed * 53 + 1, n_modules=3 + seed % 4, k_nodes=6 + seed % 8,
            extra_links=seed % 14)
        scalar, tensor = _assert_agreement(
            elpc_max_frame_rate, elpc_max_frame_rate_tensor,
            pipeline, network, request)
        if tensor is not None:
            assert tensor.frame_rate_fps == scalar.frame_rate_fps
            assert_no_reuse(tensor.path)
            assert len(tensor.path) == pipeline.n_modules


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
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(shape=instance_shapes())
    def test_min_delay_property(self, shape):
        seed, n_modules, k_nodes, extra_links = shape
        pipeline, network, request = _make_instance(
            seed, n_modules, k_nodes, extra_links)
        _assert_agreement(elpc_min_delay, elpc_min_delay_tensor,
                          pipeline, network, request)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(shape=instance_shapes())
    def test_max_frame_rate_property(self, shape):
        seed, n_modules, k_nodes, extra_links = shape
        pipeline, network, request = _make_instance(
            seed, n_modules, k_nodes, extra_links)
        _assert_agreement(elpc_max_frame_rate, elpc_max_frame_rate_tensor,
                          pipeline, network, request)

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(shape=instance_shapes())
    def test_min_delay_property_without_link_delay(self, shape):
        """Agreement must also hold for the literal Eq. 1 cost model."""
        seed, n_modules, k_nodes, extra_links = shape
        pipeline, network, request = _make_instance(
            seed, n_modules, k_nodes, extra_links)
        _assert_agreement(elpc_min_delay, elpc_min_delay_tensor,
                          pipeline, network, request, include_link_delay=False)

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(shape=instance_shapes())
    def test_max_frame_rate_property_without_link_delay(self, shape):
        seed, n_modules, k_nodes, extra_links = shape
        pipeline, network, request = _make_instance(
            seed, n_modules, k_nodes, extra_links)
        _assert_agreement(elpc_max_frame_rate, elpc_max_frame_rate_tensor,
                          pipeline, network, request, include_link_delay=False)


# --------------------------------------------------------------------------- #
# Agreement with the exhaustive oracles on small instances
# --------------------------------------------------------------------------- #
class TestAgainstExhaustiveOracles:
    @pytest.mark.parametrize("seed", range(8))
    def test_vec_min_delay_is_exact(self, seed):
        pipeline = random_pipeline(5, seed=seed)
        network = random_network(7, 13, seed=seed)
        request = random_request(network, seed=seed, min_hop_distance=1)
        tensor = elpc_min_delay_tensor(pipeline, network, request)
        brute = exhaustive_min_delay(pipeline, network, request)
        assert tensor.delay_ms == pytest.approx(brute.delay_ms, rel=1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_vec_frame_rate_never_beats_exhaustive(self, seed):
        pipeline = random_pipeline(4, seed=seed)
        network = random_network(7, 14, seed=seed + 500)
        request = random_request(network, seed=seed, min_hop_distance=2)
        try:
            exact = exhaustive_max_frame_rate(pipeline, network, request)
        except InfeasibleMappingError:
            pytest.skip("instance genuinely infeasible")
        try:
            tensor = elpc_max_frame_rate_tensor(pipeline, network, request)
        except InfeasibleMappingError:
            pytest.skip("heuristic miss (must match the scalar, checked elsewhere)")
        assert tensor.frame_rate_fps <= exact.frame_rate_fps + 1e-9
        assert_no_reuse(tensor.path)

    def test_vec_and_scalar_heuristics_miss_identically(self):
        """When the heuristic misses a feasible instance, both engines miss."""
        scalar_outcomes, tensor_outcomes = [], []
        for seed in range(40):
            pipeline, network, request = _make_instance(
                seed * 11 + 3, n_modules=4 + seed % 3, k_nodes=6 + seed % 5,
                extra_links=seed % 6)
            s_value, _ = _objective_or_infeasible(
                elpc_max_frame_rate, pipeline, network, request)
            v_value, _ = _objective_or_infeasible(
                elpc_max_frame_rate_tensor, pipeline, network, request)
            scalar_outcomes.append(s_value is INFEASIBLE)
            tensor_outcomes.append(v_value is INFEASIBLE)
        assert scalar_outcomes == tensor_outcomes


# --------------------------------------------------------------------------- #
# DP-table parity (keep_table) — the tables themselves agree cell by cell
# --------------------------------------------------------------------------- #
class TestTableParity:
    @pytest.mark.parametrize("seed", [0, 3, 9])
    def test_min_delay_tables_match(self, seed):
        pipeline, network, request = _make_instance(seed * 7, 5, 8, 6)
        scalar = elpc_min_delay(pipeline, network, request, keep_table=True)
        tensor = elpc_min_delay_tensor(pipeline, network, request, keep_table=True)
        s_table, v_table = scalar.extras["dp_table"], tensor.extras["dp_table"]
        assert s_table.node_ids == v_table.node_ids
        for j in range(pipeline.n_modules):
            for nid in s_table.node_ids:
                s_val, v_val = s_table.value(j, nid), v_table.value(j, nid)
                if math.isinf(s_val):
                    assert math.isinf(v_val), (j, nid)
                else:
                    assert v_val == s_val, (j, nid)
