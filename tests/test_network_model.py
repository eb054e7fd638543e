"""Model-based differential test for :class:`repro.model.TransportNetwork`.

A hypothesis state machine applies random structural and scalar edits to a
network and, beside it, to a reference :class:`networkx.Graph` updated the
way a graph mirror of the topology would be: one ``add_edge`` per link with
``bandwidth_mbps`` / ``min_delay_ms`` / ``link_id`` attributes, attribute
writes on scalar edits.  After every step the network's own adjacency
queries, its on-demand :attr:`~repro.model.TransportNetwork.graph` and its
dense view must agree with the reference.
"""

from __future__ import annotations

from dataclasses import fields

import networkx as nx
import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant,
                                 precondition, rule)

from repro.exceptions import SpecificationError
from repro.model import CommunicationLink, ComputingNode, TransportNetwork
from repro.model.link import transfer_time_ms

MESSAGE_BYTES = 4.0e5
MAX_NODE_ID = 9

powers = st.floats(min_value=1.0, max_value=500.0, allow_nan=False)
bandwidths = st.floats(min_value=0.5, max_value=1000.0, allow_nan=False)
delays = st.floats(min_value=0.0, max_value=20.0, allow_nan=False)
picks = st.integers(min_value=0, max_value=10_000)


def _reference_widest(ref: nx.Graph, source: int, destination: int) -> float:
    """Bottleneck bandwidth of the widest route, by thresholding."""
    if source == destination:
        return float("inf")
    for bw in sorted({d["bandwidth_mbps"] for _u, _v, d in ref.edges(data=True)},
                     reverse=True):
        wide = nx.Graph()
        wide.add_nodes_from(ref)
        wide.add_edges_from((u, v) for u, v, d in ref.edges(data=True)
                            if d["bandwidth_mbps"] >= bw)
        if nx.has_path(wide, source, destination):
            return bw
    return 0.0


class NetworkMachine(RuleBasedStateMachine):
    @initialize()
    def start(self):
        self.net = TransportNetwork()
        self.ref = nx.Graph()

    def _pick_node(self, i: int) -> int:
        ids = sorted(self.ref)
        return ids[i % len(ids)]

    def _pick_link(self, i: int):
        edges = sorted(tuple(sorted(e)) for e in self.ref.edges())
        return edges[i % len(edges)]

    # ------------------------------------------------------------------ #
    # Structural edits
    # ------------------------------------------------------------------ #
    @rule(node_id=st.integers(min_value=0, max_value=MAX_NODE_ID), power=powers)
    def add_node(self, node_id, power):
        node = ComputingNode(node_id=node_id, processing_power=power)
        if node_id in self.ref:
            with pytest.raises(SpecificationError):
                self.net.add_node(node)
            return
        self.net.add_node(node)
        self.ref.add_node(node_id)

    @precondition(lambda self: self.ref.number_of_nodes() >= 2)
    @rule(i=picks, j=picks, bw=bandwidths, delay=delays)
    def add_link(self, i, j, bw, delay):
        u, v = self._pick_node(i), self._pick_node(j)
        if u == v:
            return
        link = CommunicationLink(u, v, bandwidth_mbps=bw, min_delay_ms=delay)
        if self.ref.has_edge(u, v):
            with pytest.raises(SpecificationError):
                self.net.add_link(link)
            return
        self.net.add_link(link)
        self.ref.add_edge(u, v, bandwidth_mbps=bw, min_delay_ms=delay,
                          link_id=self.net.link(u, v).link_id)

    @precondition(lambda self: self.ref.number_of_edges() > 0)
    @rule(i=picks, flip=st.booleans())
    def remove_link(self, i, flip):
        u, v = self._pick_link(i)
        if flip:
            u, v = v, u
        self.net.remove_link(u, v)
        self.ref.remove_edge(u, v)

    @precondition(lambda self: self.ref.number_of_nodes() > 0)
    @rule(i=picks)
    def remove_node(self, i):
        node_id = self._pick_node(i)
        self.net.remove_node(node_id)
        self.ref.remove_node(node_id)

    # ------------------------------------------------------------------ #
    # Scalar edits
    # ------------------------------------------------------------------ #
    @precondition(lambda self: self.ref.number_of_edges() > 0)
    @rule(i=picks, bw=bandwidths)
    def set_bandwidth(self, i, bw):
        u, v = self._pick_link(i)
        self.net.set_bandwidth(u, v, bw)
        self.ref[u][v]["bandwidth_mbps"] = float(bw)

    @precondition(lambda self: self.ref.number_of_edges() > 0)
    @rule(i=picks, delay=delays)
    def set_link_delay(self, i, delay):
        u, v = self._pick_link(i)
        self.net.set_link_delay(u, v, delay)
        self.ref[u][v]["min_delay_ms"] = float(delay)

    @precondition(lambda self: self.ref.number_of_nodes() > 0)
    @rule(i=picks, power=powers)
    def set_processing_power(self, i, power):
        self.net.set_processing_power(self._pick_node(i), power)

    # ------------------------------------------------------------------ #
    # Invariants
    # ------------------------------------------------------------------ #
    @invariant()
    def adjacency_matches(self):
        assert self.net.n_nodes == self.ref.number_of_nodes()
        assert self.net.n_links == self.ref.number_of_edges()
        for n in self.ref:
            assert self.net.neighbors(n) == sorted(self.ref.neighbors(n))
            assert self.net.degree(n) == self.ref.degree(n)
        if self.ref.number_of_nodes():
            assert self.net.is_connected() == nx.is_connected(self.ref)

    @invariant()
    def graph_matches_reference(self):
        graph = self.net.graph
        assert graph is self.net.graph  # cached until the next edit
        assert list(graph.nodes) == list(self.ref.nodes)
        assert list(graph.edges(data=True)) == list(self.ref.edges(data=True))
        for n in self.ref:
            assert list(graph.adj[n]) == list(self.ref.adj[n])

    @invariant()
    def path_queries_match(self):
        ids = sorted(self.ref)
        pairs = {(u, v) for u in ids[:3] for v in ids} | set(zip(ids, reversed(ids)))
        for source, destination in sorted(pairs):
            try:
                expected_hops = nx.shortest_path_length(self.ref, source, destination)
            except nx.NetworkXNoPath:
                expected_hops = -1
            assert self.net.hop_distance(source, destination) == expected_hops

            bottleneck = _reference_widest(self.ref, source, destination)
            if bottleneck > 0.0:
                path, width = self.net.widest_path(source, destination)
                assert width == bottleneck
                assert path[0] == source and path[-1] == destination
            else:
                with pytest.raises(SpecificationError):
                    self.net.widest_path(source, destination)

            if expected_hops < 0:
                with pytest.raises(SpecificationError):
                    self.net.shortest_transfer_path(source, destination,
                                                    MESSAGE_BYTES)
                continue
            if source == destination:
                expected_path = [source]
            else:
                expected_path = nx.dijkstra_path(
                    self.ref, source, destination,
                    weight=lambda u, v, d: transfer_time_ms(
                        MESSAGE_BYTES, d["bandwidth_mbps"], d["min_delay_ms"]))
            path, total = self.net.shortest_transfer_path(source, destination,
                                                          MESSAGE_BYTES)
            assert path == expected_path
            assert total == sum(
                self.net.link(u, v).transport_time_ms(MESSAGE_BYTES)
                for u, v in zip(path, path[1:]))

    @invariant()
    def dense_view_matches_rebuild(self):
        if not self.ref.number_of_nodes():
            return
        view = self.net.dense_view()
        fresh = TransportNetwork.from_dict(self.net.to_dict()).dense_view()
        for field in fields(view):
            if field.name == "epoch":
                continue
            ours, theirs = getattr(view, field.name), getattr(fresh, field.name)
            if isinstance(ours, np.ndarray):
                assert ours.dtype == theirs.dtype, field.name
                assert np.array_equal(ours, theirs), field.name
            else:
                assert ours == theirs, field.name
        # The k x k link matrices are derived on first read, not stored as
        # fields, so the loop above does not reach them.
        for name in ("bandwidth", "link_delay", "bandwidth_bits_per_s"):
            ours, theirs = getattr(view, name), getattr(fresh, name)
            assert ours.dtype == theirs.dtype, name
            assert ours.tobytes() == theirs.tobytes(), name
            assert not ours.flags.writeable and not theirs.flags.writeable, name


NetworkMachine.TestCase.settings = settings(
    max_examples=80, stateful_step_count=25, deadline=None)
TestTransportNetworkModel = NetworkMachine.TestCase
