"""Tests for the tensor engine's padded-slot staging (:mod:`repro.core.tensor`).

* the padded-slot :func:`segment_min` contract and per-view
  :func:`stage_view` caching;
* the general ragged-batch path of both DP sweeps, pinned bit for bit
  against the same items solved one at a time over the full fixed-seed
  sweep, for both objectives and both cost-model variants.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.mapping import PipelineMapping
from repro.core.tensor import (
    elpc_max_frame_rate_many,
    elpc_min_delay_many,
    segment_min,
    stage_view,
)
from repro.exceptions import InfeasibleMappingError
from repro.generators import (
    max_links,
    min_links_for_connectivity,
    random_network,
    random_pipeline,
    random_request,
)


def _make_instance(seed: int, n_modules: int, k_nodes: int, extra_links: int):
    """One deterministic random instance (same recipe as the tensor suite)."""
    lo, hi = min_links_for_connectivity(k_nodes), max_links(k_nodes)
    n_links = min(lo + extra_links, hi)
    pipeline = random_pipeline(n_modules, seed=seed)
    network = random_network(k_nodes, n_links, seed=seed + 1)
    request = random_request(network, seed=seed + 2, min_hop_distance=1)
    return pipeline, network, request


def _sweep_instance(seed: int):
    return _make_instance(seed=seed * 41, n_modules=3 + seed % 6,
                          k_nodes=5 + seed % 9, extra_links=seed % 12)


def _assert_entries_identical(reference, candidate):
    """Two ``*_many`` result lists: same feasibility, same values, same paths."""
    assert len(reference) == len(candidate)
    for ref, cand in zip(reference, candidate):
        if isinstance(ref, PipelineMapping):
            assert isinstance(cand, PipelineMapping), (ref, cand)
            key = ("dp_value_ms" if "dp_value_ms" in ref.extras
                   else "dp_bottleneck_ms")
            assert cand.extras[key] == ref.extras[key]
            assert cand.path == ref.path
            assert cand.extras["dp_finite_cells"] == ref.extras["dp_finite_cells"]
        else:
            assert isinstance(cand, type(ref)), (ref, cand)


def _batch(seed: int, count: int = 4):
    """A small same-network batch with mixed pipeline lengths."""
    _, network, _ = _sweep_instance(seed)
    pipelines = [random_pipeline(2 + (seed + b) % 7, seed=seed * 10 + b)
                 for b in range(count)]
    requests = [random_request(network, seed=seed + b, min_hop_distance=1)
                for b in range(count)]
    return pipelines, network, requests


def _one_at_a_time(many, pipelines, network, requests, **kwargs):
    """The same items solved as batches of one (the all-running fast path)."""
    return [many([pipeline], network, [request], **kwargs)[0]
            for pipeline, request in zip(pipelines, requests)]


# --------------------------------------------------------------------------- #
# segment_min contract
# --------------------------------------------------------------------------- #
class TestSegmentMin:
    def _staged(self, k=6, links=9, seed=3):
        network = random_network(k, links, seed=seed)
        view = network.dense_view()
        return view, stage_view(view)

    def test_matches_bruteforce_min_and_lowest_u(self):
        view, staged = self._staged()
        rng = np.random.default_rng(7)
        values = rng.random((3, view.n_directed_edges))
        # Force ties inside one node's segment to check the lowest-u rule.
        lo, hi = view.edge_indptr[2], view.edge_indptr[3]
        if hi - lo >= 2:
            values[:, lo:hi] = 0.25
        best, best_u = segment_min(values, staged)
        for a in range(values.shape[0]):
            for v in range(view.n_nodes):
                seg = slice(view.edge_indptr[v], view.edge_indptr[v + 1])
                entries = values[a, seg]
                if entries.size == 0:
                    assert np.isinf(best[a, v]) and best_u[a, v] == 0
                    continue
                assert best[a, v] == entries.min()
                winners = view.edge_u[seg][entries == entries.min()]
                assert best_u[a, v] == winners.min()

    def test_all_inf_segment_normalises_argmin_to_zero(self):
        view, staged = self._staged()
        values = np.full((2, view.n_directed_edges), np.inf)
        best, best_u = segment_min(values, staged)
        assert np.isinf(best).all()
        assert (best_u == 0).all()

    def test_edgeless_network(self):
        from repro.model import ComputingNode, TransportNetwork

        network = TransportNetwork(nodes=[
            ComputingNode(node_id=i, processing_power=1.0) for i in range(4)])
        staged = stage_view(network.dense_view())
        best, best_u = segment_min(np.empty((2, 0)), staged)
        assert best.shape == (2, 4) and np.isinf(best).all()
        assert (best_u == 0).all()


# --------------------------------------------------------------------------- #
# Per-view staging
# --------------------------------------------------------------------------- #
class TestStageView:
    def test_staging_is_cached_per_view(self):
        network = random_network(8, 16, seed=4)
        view = network.dense_view()
        assert stage_view(view) is stage_view(view)

    def test_mutation_invalidates_through_new_view(self):
        from repro.model import ComputingNode

        network = random_network(8, 16, seed=4)
        first = stage_view(network.dense_view())
        network.add_node(ComputingNode(node_id=99, processing_power=1.0))
        second = stage_view(network.dense_view())
        assert second is not first
        assert second.k == first.k + 1

    def test_numpy_staging_is_zero_copy(self):
        network = random_network(8, 16, seed=4)
        view = network.dense_view()
        staged = stage_view(view)
        assert staged.edge_u is view.edge_u
        assert staged.edge_bandwidth_bits_per_s is view.edge_bandwidth_bits_per_s

    def test_collected_view_leaves_the_cache(self):
        import gc

        from repro.core import tensor

        network = random_network(8, 16, seed=5)
        key = id(network.dense_view())
        stage_view(network.dense_view())
        assert key in tensor._STAGED
        del network
        gc.collect()
        assert key not in tensor._STAGED


# --------------------------------------------------------------------------- #
# Bit-identity: ragged batches vs one item at a time (all seeds)
# --------------------------------------------------------------------------- #
class TestGenericPathBitIdentity:
    """The general ragged-batch path against the all-running fast path.

    A batch of mixed-length pipelines advances its longer items through the
    active-subset branch of each sweep and applies the last-stage
    destination rule per item; a batch of one only ever takes the
    all-running branch.  Both must give bit-identical results.  (The class
    keeps the name of the portable sweep it once compared against, so the
    test ids stay stable.)
    """

    @pytest.mark.parametrize("seed", range(60))
    def test_min_delay_batch(self, seed):
        pipelines, network, requests = _batch(seed)
        reference = _one_at_a_time(elpc_min_delay_many, pipelines, network,
                                   requests)
        candidate = elpc_min_delay_many(pipelines, network, requests)
        _assert_entries_identical(reference, candidate)

    @pytest.mark.parametrize("seed", range(60))
    def test_max_frame_rate_batch(self, seed):
        pipelines, network, requests = _batch(seed)
        reference = _one_at_a_time(elpc_max_frame_rate_many, pipelines,
                                   network, requests)
        candidate = elpc_max_frame_rate_many(pipelines, network, requests)
        _assert_entries_identical(reference, candidate)

    @pytest.mark.parametrize("seed", range(20))
    def test_both_objectives_without_link_delay(self, seed):
        """Bit-identity must also hold for the literal Eq. 1 cost model."""
        pipelines, network, requests = _batch(seed * 7 + 1)
        for many in (elpc_min_delay_many, elpc_max_frame_rate_many):
            reference = _one_at_a_time(many, pipelines, network, requests,
                                       include_link_delay=False)
            candidate = many(pipelines, network, requests,
                             include_link_delay=False)
            _assert_entries_identical(reference, candidate)

    @pytest.mark.parametrize("seed", [2, 9, 17])
    def test_dp_tables_match(self, seed):
        pipelines, network, requests = _batch(seed)
        reference = _one_at_a_time(elpc_min_delay_many, pipelines, network,
                                   requests, keep_table=True)
        candidate = elpc_min_delay_many(pipelines, network, requests,
                                        keep_table=True)
        for ref, cand in zip(reference, candidate):
            if not isinstance(ref, PipelineMapping):
                continue
            r_table, c_table = ref.extras["dp_table"], cand.extras["dp_table"]
            for j in range(len(ref.pipeline.modules)):
                for nid in r_table.node_ids:
                    r_val, c_val = r_table.value(j, nid), c_table.value(j, nid)
                    assert (c_val == r_val) or (np.isinf(r_val)
                                                and np.isinf(c_val)), (j, nid)

    def test_all_infeasible_batch(self):
        network = random_network(6, 8, seed=9)
        request = random_request(network, seed=9, min_hop_distance=1)
        pipelines = [random_pipeline(8, seed=s) for s in range(3)]
        entries = elpc_max_frame_rate_many(pipelines, network, request)
        assert all(isinstance(e, InfeasibleMappingError) for e in entries)

    def test_ragged_lengths(self):
        network = random_network(11, 30, seed=19)
        pipelines = [random_pipeline(n, seed=50 + n)
                     for n in (2, 9, 3, 7, 2, 11, 5)]
        requests = [random_request(network, seed=60 + n, min_hop_distance=1)
                    for n in (2, 9, 3, 7, 2, 11, 5)]
        for many in (elpc_min_delay_many, elpc_max_frame_rate_many):
            _assert_entries_identical(
                _one_at_a_time(many, pipelines, network, requests),
                many(pipelines, network, requests))
