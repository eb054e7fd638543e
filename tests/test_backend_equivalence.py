"""Tests for the tensor engine's padded-slot staging (:mod:`repro.core.tensor`).

* the frame-rate sweep's padded-slot per-node minimum (brute-force minimum
  and lowest-``u`` tie-break, unreachable cells, edgeless networks) and
  per-view :func:`stage_view` caching;
* the general ragged-batch path of both DP sweeps, pinned bit for bit
  against the same items solved one at a time over the full fixed-seed
  sweep, for both objectives and both cost-model variants.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.elpc_framerate import elpc_max_frame_rate
from repro.core.mapping import PipelineMapping
from repro.core.tensor import (
    _framerate_stages,
    _stage_arrays,
    elpc_max_frame_rate_many,
    elpc_min_delay_many,
    stage_view,
)
from repro.exceptions import InfeasibleMappingError
from repro.generators import (
    line_network,
    max_links,
    min_links_for_connectivity,
    random_network,
    random_pipeline,
    random_request,
)
from repro.model import EndToEndRequest
from repro.model.cost import computing_time_ms, transport_time_ms


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
# Per-node minimum contract of the frame-rate sweep
# --------------------------------------------------------------------------- #
def _cell_path(pred, j, v):
    """The partial path realising stage-``j`` cell ``v`` (node indices)."""
    path = [v]
    for stage in range(j, 0, -1):
        path.append(int(pred[stage, path[-1]]))
    return path


class TestSegmentMin:
    """The frame-rate sweep's padded-slot per-node minimum, on real solves.

    Every cell is the minimum over its admissible in-edges, with the lowest
    predecessor index among ties; a node with no finite in-edge is ``inf``
    with ``pred = -1``; an edgeless network maps nothing past the source.
    (The class keeps the name of the helper this contract once lived in, so
    the test ids stay stable.)
    """

    def _uniform_network(self, k=8, links=16, seed=3):
        """Equal powers, bandwidths and delays, so candidates tie often."""
        network = random_network(k, links, seed=seed)
        for node_id in network.node_ids():
            network.set_processing_power(node_id, 2.0)
        for link in network.links():
            network.set_bandwidth(link.start_node, link.end_node, 100.0)
            network.set_link_delay(link.start_node, link.end_node, 1.0)
        return network

    def _tables(self, pipelines, network, requests):
        view = network.dense_view()
        n_arr = np.array([p.n_modules for p in pipelines])
        src = np.array([view.index_of[r.source] for r in requests])
        dst = np.array([view.index_of[r.destination] for r in requests])
        workload, message = _stage_arrays(pipelines, range(len(pipelines)),
                                          int(n_arr.max()))
        return view, _framerate_stages(
            stage_view(view), len(pipelines), n_arr, src, dst, workload,
            message, include_link_delay=True)

    def test_matches_bruteforce_min_and_lowest_u(self):
        network = self._uniform_network()
        node_ids = network.node_ids()
        pipelines = [random_pipeline(n, seed=n) for n in (3, 5, 6, 4)]
        requests = [EndToEndRequest(node_ids[0], node_ids[-1]),
                    EndToEndRequest(node_ids[1], node_ids[2]),
                    EndToEndRequest(node_ids[3], node_ids[0]),
                    EndToEndRequest(node_ids[2], node_ids[5])]
        view, (values, pred) = self._tables(pipelines, network, requests)
        ties = 0
        for a, (pipeline, request) in enumerate(zip(pipelines, requests)):
            n = pipeline.n_modules
            dst = view.index_of[request.destination]
            for j in range(1, n):
                module = pipeline.modules[j]
                for v in range(view.n_nodes):
                    if (v == dst) != (j == n - 1):
                        assert np.isinf(values[a, j, v])
                        continue
                    v_id = view.node_ids[v]
                    compute = computing_time_ms(network, v_id,
                                                module.complexity,
                                                module.input_bytes)
                    cands = {}
                    for u_id in network.neighbors(v_id):
                        u = view.index_of[u_id]
                        if (np.isinf(values[a, j - 1, u])
                                or v in _cell_path(pred[a], j - 1, u)):
                            continue
                        cands[u] = max(values[a, j - 1, u], compute,
                                       transport_time_ms(network, u_id, v_id,
                                                         module.input_bytes))
                    if not cands:
                        assert np.isinf(values[a, j, v])
                        assert pred[a, j, v] == -1
                        continue
                    best = min(cands.values())
                    winners = sorted(u for u, c in cands.items() if c == best)
                    ties += len(winners) > 1
                    assert values[a, j, v] == best
                    assert pred[a, j, v] == winners[0]
        assert ties  # the uniform network must exercise the tie-break

    def test_all_inf_segment_normalises_argmin_to_zero(self):
        # On a line, stage j reaches only the node j hops from the source:
        # every other node has no finite in-edge.
        network = line_network(6, seed=1)
        pipelines = [random_pipeline(6, seed=1), random_pipeline(4, seed=2)]
        requests = [EndToEndRequest(0, 5), EndToEndRequest(0, 3)]
        _view, (values, pred) = self._tables(pipelines, network, requests)
        for a, pipeline in enumerate(pipelines):
            for j in range(pipelines[0].n_modules):
                reached = j if j < pipeline.n_modules else None
                for v in range(6):
                    if v == reached:
                        assert np.isfinite(values[a, j, v])
                        assert pred[a, j, v] == (v - 1 if j else -1)
                    else:
                        assert np.isinf(values[a, j, v])
                        assert pred[a, j, v] == -1

    def test_edgeless_network(self):
        from repro.model import ComputingNode, TransportNetwork

        network = TransportNetwork(nodes=[
            ComputingNode(node_id=i, processing_power=1.0) for i in range(4)])
        pipelines = [random_pipeline(2, seed=1), random_pipeline(3, seed=2)]
        requests = [EndToEndRequest(0, 0), EndToEndRequest(2, 2)]
        _view, (values, pred) = self._tables(pipelines, network, requests)
        assert values.shape == pred.shape == (2, 3, 4)
        assert values[0, 0, 0] == values[1, 0, 2] == 0.0
        assert np.isinf(values[:, 1:]).all() and (pred == -1).all()
        entries = elpc_max_frame_rate_many(pipelines, network, requests)
        assert all(isinstance(e, InfeasibleMappingError) for e in entries)
        with pytest.raises(InfeasibleMappingError,
                           match="found no simple path with exactly 2 nodes"):
            elpc_max_frame_rate(pipelines[0], network, requests[0])


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
