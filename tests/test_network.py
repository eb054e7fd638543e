"""Unit tests for :mod:`repro.model.network`."""

import numpy as np
import pytest

from repro.exceptions import SpecificationError
from repro.generators import random_network
from repro.model import (
    CommunicationLink,
    ComputingNode,
    EndToEndRequest,
    TransportNetwork,
)


def build_net() -> TransportNetwork:
    """Square 0-1-2-3-0 plus diagonal 0-2 with distinct bandwidths."""
    nodes = [ComputingNode(node_id=i, processing_power=10.0 * (i + 1)) for i in range(4)]
    links = [
        CommunicationLink(0, 1, bandwidth_mbps=100.0, min_delay_ms=1.0),
        CommunicationLink(1, 2, bandwidth_mbps=50.0, min_delay_ms=2.0),
        CommunicationLink(2, 3, bandwidth_mbps=200.0, min_delay_ms=0.5),
        CommunicationLink(3, 0, bandwidth_mbps=25.0, min_delay_ms=3.0),
        CommunicationLink(0, 2, bandwidth_mbps=10.0, min_delay_ms=4.0),
    ]
    return TransportNetwork(nodes=nodes, links=links, name="square")


class TestConstruction:
    def test_counts(self):
        net = build_net()
        assert net.n_nodes == 4
        assert net.n_links == 5
        assert len(net) == 4
        assert list(net) == [0, 1, 2, 3]

    def test_duplicate_node_rejected(self):
        net = build_net()
        with pytest.raises(SpecificationError):
            net.add_node(ComputingNode(node_id=0, processing_power=1.0))

    def test_duplicate_link_rejected(self):
        net = build_net()
        with pytest.raises(SpecificationError):
            net.connect(0, 1, bandwidth_mbps=5.0)
        with pytest.raises(SpecificationError):
            net.connect(1, 0, bandwidth_mbps=5.0)  # reversed duplicate

    def test_link_with_unknown_node_rejected(self):
        net = build_net()
        with pytest.raises(SpecificationError):
            net.add_link(CommunicationLink(0, 9, bandwidth_mbps=1.0))

    def test_link_ids_assigned(self):
        net = build_net()
        ids = [l.link_id for l in net.links()]
        assert len(set(ids)) == len(ids)
        assert all(i is not None for i in ids)


class TestQueries:
    def test_node_and_link_lookup(self):
        net = build_net()
        assert net.node(2).processing_power == 30.0
        assert net.link(1, 2).bandwidth_mbps == 50.0
        assert net.link(2, 1).bandwidth_mbps == 50.0  # symmetric lookup
        assert net.bandwidth(0, 2) == 10.0
        assert net.min_delay(3, 0) == 3.0

    def test_unknown_lookups_raise(self):
        net = build_net()
        with pytest.raises(SpecificationError):
            net.node(99)
        with pytest.raises(SpecificationError):
            net.link(1, 3)
        with pytest.raises(SpecificationError):
            net.neighbors(99)

    def test_neighbors_sorted(self):
        net = build_net()
        assert net.neighbors(0) == [1, 2, 3]
        assert net.neighbors(1) == [0, 2]
        assert net.degree(0) == 3

    def test_membership(self):
        net = build_net()
        assert 0 in net
        assert 99 not in net
        assert net.has_link(0, 1)
        assert not net.has_link(1, 3)

    def test_connected_and_complete(self):
        net = build_net()
        assert net.is_connected()
        assert not net.is_complete()
        k3 = TransportNetwork(
            nodes=[ComputingNode(i, 1.0) for i in range(3)],
            links=[CommunicationLink(0, 1, 1.0), CommunicationLink(1, 2, 1.0),
                   CommunicationLink(0, 2, 1.0)])
        assert k3.is_complete()

    def test_statistics(self):
        net = build_net()
        assert net.total_processing_power() == pytest.approx(10 + 20 + 30 + 40)
        assert net.mean_bandwidth() == pytest.approx(np.mean([100, 50, 200, 25, 10]))
        assert net.node_communication_capacity(0) == pytest.approx(100 + 25 + 10)
        assert 0.0 < net.density() < 1.0


class TestPathQueries:
    def test_is_walk_accepts_repeats(self):
        net = build_net()
        assert net.is_walk([0, 1, 2, 2, 3])
        assert net.is_walk([0, 0, 0])
        assert not net.is_walk([0, 3, 1])  # 3-1 not a link
        assert not net.is_walk([])
        assert not net.is_walk([0, 99])

    def test_hop_distance(self):
        net = build_net()
        assert net.hop_distance(0, 0) == 0
        assert net.hop_distance(1, 3) == 2
        with pytest.raises(SpecificationError):
            net.hop_distance(0, 99)

    def test_hop_distance_disconnected(self):
        net = build_net()
        net.add_node(ComputingNode(node_id=9, processing_power=1.0))
        assert net.hop_distance(0, 9) == -1
        assert not net.is_connected()

    def test_shortest_transfer_path(self):
        net = build_net()
        path, time_ms = net.shortest_transfer_path(1, 3, 1000.0)
        assert path[0] == 1 and path[-1] == 3
        assert net.is_walk(path)
        assert time_ms > 0
        same, zero = net.shortest_transfer_path(2, 2, 1000.0)
        assert same == [2] and zero == 0.0

    def test_shortest_transfer_path_rejects_unknown_endpoints(self):
        # An unknown endpoint used to come back as a zero-cost path (when
        # source == destination) or as networkx.NodeNotFound; it is now the
        # same SpecificationError that hop_distance and widest_path raise.
        net = random_network(6, 8, seed=1)
        for source, destination in [(99, 99), (99, 0), (0, 99)]:
            with pytest.raises(SpecificationError, match="unknown endpoint"):
                net.shortest_transfer_path(source, destination, 1e3)

    def test_widest_path(self):
        net = build_net()
        path, capacity = net.widest_path(1, 3)
        assert path[0] == 1 and path[-1] == 3
        # widest 1->3 route is 1-2-3 with bottleneck min(50, 200) = 50
        assert capacity == pytest.approx(50.0)
        _p, inf_cap = net.widest_path(2, 2)
        assert inf_cap == float("inf")


class TestMatrices:
    def test_adjacency_matrix_symmetric(self):
        net = build_net()
        mat = net.adjacency_matrix()
        assert mat.shape == (4, 4)
        assert (mat == mat.T).all()
        assert mat[0, 1] and not mat[1, 3]

    def test_bandwidth_and_delay_matrices(self):
        net = build_net()
        bw = net.bandwidth_matrix()
        dl = net.delay_matrix()
        assert bw[1, 2] == 50.0 and bw[2, 1] == 50.0
        assert dl[0, 2] == 4.0
        assert bw[1, 3] == 0.0

    def test_from_matrices_roundtrip(self):
        net = build_net()
        again = TransportNetwork.from_matrices(
            [n.processing_power for n in net.nodes()],
            net.bandwidth_matrix(), net.delay_matrix())
        assert again.n_nodes == net.n_nodes
        assert again.n_links == net.n_links
        assert again.bandwidth(0, 2) == net.bandwidth(0, 2)
        assert again.min_delay(3, 0) == net.min_delay(3, 0)

    def test_from_matrices_validation(self):
        bad = np.array([[0.0, 1.0], [2.0, 0.0]])  # asymmetric
        with pytest.raises(SpecificationError):
            TransportNetwork.from_matrices([1.0, 1.0], bad)
        with pytest.raises(SpecificationError):
            TransportNetwork.from_matrices([1.0], np.zeros((2, 2)))


class TestSerializationAndCopy:
    def test_dict_roundtrip(self):
        net = build_net()
        again = TransportNetwork.from_dict(net.to_dict())
        assert again.n_nodes == net.n_nodes
        assert again.n_links == net.n_links
        assert again.link(0, 2).bandwidth_mbps == 10.0
        assert again.name == "square"

    def test_copy_is_independent(self):
        net = build_net()
        clone = net.copy()
        clone.add_node(ComputingNode(node_id=50, processing_power=1.0))
        assert 50 in clone
        assert 50 not in net


class TestEndToEndRequest:
    def test_validate(self):
        net = build_net()
        EndToEndRequest(source=0, destination=3).validate(net)
        with pytest.raises(SpecificationError):
            EndToEndRequest(source=0, destination=99).validate(net)
        with pytest.raises(SpecificationError):
            EndToEndRequest(source=77, destination=3).validate(net)


class TestDenseView:
    def test_matrices_match_scalar_queries(self):
        net = build_net()
        view = net.dense_view()
        assert view.n_nodes == 4
        assert view.node_ids == (0, 1, 2, 3)
        assert view.index_of == {0: 0, 1: 1, 2: 2, 3: 3}
        assert np.array_equal(view.power, [10.0, 20.0, 30.0, 40.0])
        assert np.array_equal(view.adjacency, net.adjacency_matrix())
        assert np.array_equal(view.bandwidth, net.bandwidth_matrix())
        assert np.array_equal(view.link_delay, net.delay_matrix())

    def test_view_is_cached_until_mutation(self):
        net = build_net()
        first = net.dense_view()
        assert net.dense_view() is first
        net.add_node(ComputingNode(node_id=9, processing_power=5.0))
        second = net.dense_view()
        assert second is not first
        assert second.n_nodes == 5
        assert net.dense_view() is second
        net.connect(9, 0, bandwidth_mbps=80.0)
        third = net.dense_view()
        assert third is not second
        assert third.adjacency[third.index_of[9], third.index_of[0]]

    def test_transport_matrix_matches_link_model(self):
        from repro.model import transport_time_ms

        net = build_net()
        view = net.dense_view()
        mat = view.transport_matrix_ms(500_000.0)
        bare = view.transport_matrix_ms(500_000.0, include_link_delay=False)
        for u in net.node_ids():
            for v in net.node_ids():
                i, j = view.index_of[u], view.index_of[v]
                if net.has_link(u, v):
                    assert mat[i, j] == transport_time_ms(net, u, v, 500_000.0)
                    assert bare[i, j] == transport_time_ms(
                        net, u, v, 500_000.0, include_link_delay=False)
                else:
                    assert np.isinf(mat[i, j]) and np.isinf(bare[i, j])

    def test_transport_matrix_zero_message_has_no_nan(self):
        net = build_net()
        mat = net.dense_view().transport_matrix_ms(0.0)
        assert not np.isnan(mat).any()
        # Zero bytes over a link costs exactly the minimum link delay.
        view = net.dense_view()
        assert mat[view.index_of[0], view.index_of[1]] == 1.0

    def test_view_arrays_are_read_only(self):
        """The cached view is shared; mutating it must fail loudly, not
        silently corrupt later vectorized solves."""
        view = build_net().dense_view()
        for arr in (view.power, view.adjacency, view.bandwidth,
                    view.link_delay, view.bandwidth_bits_per_s):
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_rejects_negative_message_and_empty_network(self):
        net = build_net()
        with pytest.raises(SpecificationError):
            net.dense_view().transport_matrix_ms(-1.0)
        with pytest.raises(SpecificationError):
            TransportNetwork().dense_view()


class TestScalarEditCost:
    def test_scalar_edit_is_linear_in_links(self):
        """One bandwidth edit patches O(|E|) vectors: it allocates less than
        one k x k float matrix and shares the topology and its staging."""
        import tracemalloc

        from repro.core.tensor import stage_view

        net = random_network(1000, 3000, seed=3)
        view = net.dense_view()
        staged = stage_view(view)
        link = net.links()[0]
        tracemalloc.start()
        try:
            net.set_bandwidth(link.start_node, link.end_node,
                              link.bandwidth_mbps * 1.5)
            patched = net.dense_view()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        k = view.n_nodes
        assert peak < k * k * 8, f"one edit allocated {peak / 1e6:.1f} MB"
        assert patched is not view
        for name in ("adjacency", "edge_u", "edge_v", "edge_indptr",
                     "neighbor_lists"):
            assert getattr(patched, name) is getattr(view, name), name
        restaged = stage_view(patched)
        assert restaged is not staged
        for name in ("flat_slot", "slot_to_u_flat", "slot_to_edge_flat"):
            assert getattr(restaged, name) is getattr(staged, name), name
        i, j = view.index_of[link.start_node], view.index_of[link.end_node]
        assert patched.bandwidth[i, j] == link.bandwidth_mbps * 1.5
        assert view.bandwidth[i, j] == link.bandwidth_mbps

    def test_patch_rejects_a_cell_without_a_link(self):
        view = build_net().dense_view()
        i, j = view.index_of[1], view.index_of[3]  # no 1-3 link
        with pytest.raises(SpecificationError, match="no link exists"):
            view.patched(epoch=1, link_values={(i, j): (1.0, 1.0)})


def _edit_journal(net: TransportNetwork, rng: np.random.Generator,
                  n_edits: int) -> list:
    """Apply ``n_edits`` random scalar edits, returning each one's delta."""
    links, nodes = net.links(), net.nodes()
    steps = []
    for _ in range(n_edits):
        factor = float(rng.uniform(0.5, 1.5))
        if rng.integers(3) == 0:
            node = nodes[int(rng.integers(len(nodes)))]
            net.set_processing_power(node.node_id,
                                     node.processing_power * factor)
        else:
            link = links[int(rng.integers(len(links)))]
            if rng.integers(2):
                net.set_bandwidth(link.start_node, link.end_node,
                                  link.bandwidth_mbps * factor)
            else:
                net.set_link_delay(link.start_node, link.end_node,
                                   link.min_delay_ms * factor + 0.1)
        steps.append(net.delta_since(net.view_epoch - 1))
    return steps


class TestViewJournal:
    @pytest.mark.parametrize("seed", range(4))
    def test_merge_equals_pairwise_merge(self, seed):
        from functools import reduce

        net = random_network(20, 40, seed=seed)
        net.dense_view()
        start = net.view_epoch
        steps = _edit_journal(net, np.random.default_rng(seed), 60)
        assert net.view_epoch == start + len(steps)
        for offset in range(len(steps)):
            expected = reduce(lambda a, b: a.merged_with(b), steps[offset:])
            assert net.delta_since(start + offset) == expected
        assert net.delta_since(net.view_epoch).is_empty

    def test_unbridgeable_gaps_return_none(self):
        from repro.model.network import _VIEW_JOURNAL_LIMIT

        net = random_network(20, 40, seed=7)
        net.dense_view()
        start = net.view_epoch
        _edit_journal(net, np.random.default_rng(7), 3)
        assert net.delta_since(net.view_epoch + 1) is None   # future epoch
        _edit_journal(net, np.random.default_rng(8), _VIEW_JOURNAL_LIMIT)
        assert net.delta_since(start) is None                # trimmed
        assert net.delta_since(net.view_epoch - _VIEW_JOURNAL_LIMIT) is not None
        before = net.view_epoch
        net.connect(*_unlinked_pair(net), bandwidth_mbps=5.0)
        assert net.delta_since(before) is None               # structural


def _unlinked_pair(net: TransportNetwork) -> tuple:
    ids = net.node_ids()
    return next((u, v) for u in ids for v in ids
                if u < v and not net.has_link(u, v))
