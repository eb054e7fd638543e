"""Transport-network container (the paper's graph :math:`G = (V, E)`).

The underlying transport network consists of :math:`k` geographically
distributed computing nodes connected by communication links of given
bandwidth and minimum link delay.  The topology is *arbitrary* — it "may or
may not be a complete graph, depending on whether the node deployment
environment is the Internet or a dedicated network" — and the paper's
simulation datasets describe it "in the form of an adjacency matrix"
(Section 4.1).

:class:`TransportNetwork` stores :class:`~repro.model.node.ComputingNode` and
:class:`~repro.model.link.CommunicationLink` objects together with its own
undirected adjacency (a dict of neighbour dicts in link-insertion order) and
offers the queries every mapping algorithm needs: neighbour iteration,
constant-time link lookup, hop distances, widest paths, and adjacency-matrix
import/export.  networkx is imported only on call, by :attr:`TransportNetwork.graph`
and :meth:`TransportNetwork.shortest_transfer_path`, so loading this module (and
the solve and serve paths built on it) does not load networkx.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, replace as _dc_replace
from functools import cached_property
from itertools import islice
from operator import attrgetter
from typing import (TYPE_CHECKING, Any, Dict, Iterable, Iterator, List,
                    Mapping, Optional, Sequence, Tuple)

import numpy as np

from ..exceptions import SpecificationError
from ..types import NodeId, NodePath
from .link import BITS_PER_BYTE, MEGABIT, CommunicationLink, transfer_time_ms
from .node import ComputingNode

if TYPE_CHECKING:
    import networkx as nx

#: Scalar-edit journal entries retained per network.  Consumers further than
#: this many epochs behind get ``delta_since() -> None`` (cold rebuild), the
#: same behaviour as a structural edit.
_VIEW_JOURNAL_LIMIT = 256


@dataclass(frozen=True)
class ViewDelta:
    """One (or a merged run of) scalar edit(s) between two dense-view epochs.

    ``node_rows`` are the dense-view row indices whose processing power
    changed; ``link_cells`` are canonical ``(i, j)`` (``i < j``) row-index
    pairs whose bandwidth and/or link delay changed.  Scalar edits never
    change the adjacency structure — positive-value validation on the setters
    guarantees it — so a delta is exactly "these matrix entries moved, the
    topology did not".  Structural edits (node/link add/remove) clear the
    journal instead of appending: :meth:`TransportNetwork.delta_since` then
    returns ``None`` and consumers must fall back to a cold rebuild.
    """

    base_epoch: int
    epoch: int
    node_rows: Tuple[int, ...] = ()
    link_cells: Tuple[Tuple[int, int], ...] = ()

    @property
    def is_empty(self) -> bool:
        """``True`` when nothing changed between the two epochs."""
        return not self.node_rows and not self.link_cells

    def merged_with(self, other: "ViewDelta") -> "ViewDelta":
        """This delta followed by ``other`` (epoch ranges must chain)."""
        if other.base_epoch != self.epoch:
            raise SpecificationError(
                f"cannot merge ViewDelta ending at epoch {self.epoch} with "
                f"one starting at {other.base_epoch}")
        return ViewDelta(
            base_epoch=self.base_epoch, epoch=other.epoch,
            node_rows=tuple(sorted(set(self.node_rows) | set(other.node_rows))),
            link_cells=tuple(sorted(set(self.link_cells)
                                    | set(other.link_cells))))


@dataclass(frozen=True)
class DenseNetworkView:
    """Read-only dense array snapshot of a :class:`TransportNetwork`.

    Rows/columns are ordered by ascending node id (the same order as
    :meth:`TransportNetwork.node_ids`).  The view is what the tensor ELPC
    engine (:mod:`repro.core.tensor`) and the dense-view baselines iterate over
    instead of per-node ``neighbors`` / ``link`` lookups; it is built once per
    topology and cached on the network until the next mutation.

    Attributes
    ----------
    node_ids:
        Node ids in row order.
    index_of:
        Inverse map ``node_id -> row index``.
    power:
        ``(k,)`` vector of node processing powers :math:`p_i`.
    adjacency:
        ``(k, k)`` boolean adjacency matrix (symmetric, zero diagonal).
    bandwidth:
        ``(k, k)`` link bandwidths in Mbit/s; 0 where no link exists.
        Derived from the edge vectors on first read (once per view object)
        and read-only, like the two matrices below: no engine reads them,
        so a scalar patch never pays for them.
    link_delay:
        ``(k, k)`` minimum link delays in ms; 0 where no link exists.
    bandwidth_bits_per_s:
        ``(k, k)`` bandwidths converted to bits/second (0 where no link),
        ``bandwidth * MEGABIT`` element-wise, so transport matrices
        replicate the scalar cost model's floating-point operations exactly.
    edge_u, edge_v:
        ``(2|E|,)`` directed edge endpoint indices (both orientations of every
        undirected link), sorted lexicographically by ``(v, u)``.  Together
        with :attr:`edge_indptr` they form a CSR layout over *incoming* edges:
        the edges entering node index ``v`` occupy
        ``edge_indptr[v]:edge_indptr[v + 1]``, with ``u`` ascending inside the
        segment.  This is what lets the tensor engine run a DP column as
        segment reductions over :math:`O(|E|)` entries instead of a dense
        :math:`k \\times k` scan.
    edge_indptr:
        ``(k + 1,)`` CSR segment boundaries over :attr:`edge_u` /
        :attr:`edge_v`.
    edge_bandwidth_mbps:
        ``(2|E|,)`` per-directed-edge bandwidths in Mbit/s, aligned with
        :attr:`edge_u`.
    edge_bandwidth_bits_per_s:
        ``(2|E|,)`` the same bandwidths in bits/second
        (``edge_bandwidth_mbps * MEGABIT``).
    edge_link_delay:
        ``(2|E|,)`` per-directed-edge minimum link delays in ms.
    neighbor_lists:
        Per-row tuples of neighbour *node ids*, ascending — the dense
        equivalent of :meth:`TransportNetwork.neighbors`.
    epoch:
        The owning network's view epoch at the time this view was built or
        patched.  Consumers that cache per-view derived state compare it (or
        the view's object identity — every patch produces a *new* view
        object) to detect staleness; see
        :meth:`TransportNetwork.delta_since`.
    """

    node_ids: Tuple[NodeId, ...]
    index_of: Dict[NodeId, int]
    power: np.ndarray
    adjacency: np.ndarray
    edge_u: np.ndarray
    edge_v: np.ndarray
    edge_indptr: np.ndarray
    edge_bandwidth_mbps: np.ndarray
    edge_bandwidth_bits_per_s: np.ndarray
    edge_link_delay: np.ndarray
    neighbor_lists: Tuple[Tuple[NodeId, ...], ...]
    epoch: int = 0

    @classmethod
    def build(cls, node_ids: Sequence[NodeId], power: np.ndarray,
              adjacency: np.ndarray, bandwidth: np.ndarray,
              link_delay: np.ndarray, *, epoch: int = 0) -> "DenseNetworkView":
        """Assemble a view (derived arrays included) from its base matrices.

        Shared by :meth:`TransportNetwork.dense_view` and by
        :meth:`repro.extensions.dynamic.ResourceProfile.scaled_view`, which
        re-scales the base matrices in place of rebuilding a network.  Only
        the link cells of ``bandwidth`` / ``link_delay`` are kept, as edge
        vectors.  All arrays are frozen (``writeable=False``) because the view
        is shared by every solve until the next mutation.
        """
        ids = tuple(node_ids)
        index = {nid: i for i, nid in enumerate(ids)}
        power = np.asarray(power, dtype=float)
        adjacency = np.asarray(adjacency, dtype=bool)
        # CSR edge layout over incoming edges, sorted by (v, u).
        e_u, e_v = np.nonzero(adjacency)          # row-major: sorted by u, then v
        order = np.lexsort((e_u, e_v))            # re-sort by v, then u
        edge_u = np.ascontiguousarray(e_u[order])
        edge_v = np.ascontiguousarray(e_v[order])
        counts = np.bincount(edge_v, minlength=len(ids))
        edge_indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        edge_bw = np.asarray(bandwidth, dtype=float)[edge_u, edge_v]
        edge_bits = edge_bw * MEGABIT
        edge_delay = np.asarray(link_delay, dtype=float)[edge_u, edge_v]
        neighbor_lists = tuple(
            tuple(ids[j] for j in np.flatnonzero(adjacency[i]))
            for i in range(len(ids)))
        for arr in (power, adjacency, edge_u, edge_v, edge_indptr, edge_bw,
                    edge_bits, edge_delay):
            arr.setflags(write=False)
        return cls(node_ids=ids, index_of=index, power=power,
                   adjacency=adjacency, edge_u=edge_u, edge_v=edge_v,
                   edge_indptr=edge_indptr, edge_bandwidth_mbps=edge_bw,
                   edge_bandwidth_bits_per_s=edge_bits,
                   edge_link_delay=edge_delay, neighbor_lists=neighbor_lists,
                   epoch=epoch)

    def patched(self, *, epoch: int,
                node_powers: Optional[Mapping[int, float]] = None,
                link_values: Optional[Mapping[Tuple[int, int],
                                              Tuple[float, float]]] = None
                ) -> "DenseNetworkView":
        """A copy-on-write scalar patch of this view at a new ``epoch``.

        ``node_powers`` maps row indices to new processing powers;
        ``link_values`` maps ``(i, j)`` row-index pairs of *existing* links to
        their new ``(bandwidth_mbps, min_delay_ms)``.  The returned view is a
        **new object** that shares every topology array with this one and
        carries fresh frozen copies only of ``power`` and the ``(2|E|,)`` edge
        vectors a patch touches, so a patch costs :math:`O(k + |E|)`, never
        :math:`O(k^2)`.  Every consumer cache keyed by view identity (the
        tensor engine's staging cache, the scaled-view cache) correctly
        misses, and the ``(k, k)`` link matrices are derived afresh on the
        new view's first read.

        Patched entries apply the exact element-wise operations
        :meth:`build` applies (``bandwidth * MEGABIT`` for bits/s, direct
        writes for delays and powers), so a patched view is bit-identical to
        a from-scratch rebuild of the edited network — the property the
        differential suite pins.
        """
        changes: Dict[str, np.ndarray] = {}
        if node_powers:
            power = self.power.copy()
            for row, value in node_powers.items():
                power[row] = float(value)
            changes["power"] = power
        if link_values:
            edge_bw = self.edge_bandwidth_mbps.copy()
            edge_bits = self.edge_bandwidth_bits_per_s.copy()
            edge_delay = self.edge_link_delay.copy()
            for (i, j), (bw, delay) in link_values.items():
                bw = float(bw)
                delay = float(delay)
                bits = bw * MEGABIT
                # The two directed CSR slots: edge (u -> v) lives in the
                # incoming segment of v, with u ascending inside it.
                for u, v in ((i, j), (j, i)):
                    lo = int(self.edge_indptr[v])
                    hi = int(self.edge_indptr[v + 1])
                    pos = lo + int(np.searchsorted(self.edge_u[lo:hi], u))
                    if pos == hi or self.edge_u[pos] != u:
                        raise SpecificationError(
                            f"patched() got cell ({i}, {j}) but no link "
                            "exists there — structural edits need a rebuild")
                    edge_bw[pos] = bw
                    edge_bits[pos] = bits
                    edge_delay[pos] = delay
            changes["edge_bandwidth_mbps"] = edge_bw
            changes["edge_bandwidth_bits_per_s"] = edge_bits
            changes["edge_link_delay"] = edge_delay
        for arr in changes.values():
            arr.setflags(write=False)
        return _dc_replace(self, epoch=epoch, **changes)

    def _edge_matrix(self, edge_values: np.ndarray) -> np.ndarray:
        """``(k, k)`` frozen matrix holding ``edge_values`` at the link cells."""
        k = self.n_nodes
        matrix = np.zeros((k, k))
        matrix[self.edge_u, self.edge_v] = edge_values
        matrix.setflags(write=False)
        return matrix

    @cached_property
    def bandwidth(self) -> np.ndarray:
        """``(k, k)`` link bandwidths in Mbit/s; 0 where no link exists."""
        return self._edge_matrix(self.edge_bandwidth_mbps)

    @cached_property
    def link_delay(self) -> np.ndarray:
        """``(k, k)`` minimum link delays in ms; 0 where no link exists."""
        return self._edge_matrix(self.edge_link_delay)

    @cached_property
    def bandwidth_bits_per_s(self) -> np.ndarray:
        """``(k, k)`` bandwidths in bits/second; 0 where no link exists."""
        bits = self.bandwidth * MEGABIT
        bits.setflags(write=False)
        return bits

    @property
    def n_nodes(self) -> int:
        """Number of nodes ``k`` (matrix dimension)."""
        return len(self.node_ids)

    @property
    def n_directed_edges(self) -> int:
        """Number of directed edges ``2|E|`` in the CSR layout."""
        return len(self.edge_u)

    def hop_levels(self, starts: Sequence[int]) -> np.ndarray:
        """BFS hop distances from each start *index* to every node.

        Returns an ``(S, k)`` integer array with ``-1`` for unreachable nodes;
        all ``S`` sources advance one BFS level per pass of boolean matrix
        work, so batching the feasibility checks of a whole tensor batch costs
        a handful of array operations instead of one graph traversal per
        instance.  Distances agree with
        :meth:`TransportNetwork.hop_distance` (both are plain BFS).
        """
        starts = np.asarray(starts, dtype=np.int64)
        k = self.n_nodes
        dist = np.full((len(starts), k), -1, dtype=np.int64)
        frontier = np.zeros((len(starts), k), dtype=bool)
        frontier[np.arange(len(starts)), starts] = True
        dist[np.arange(len(starts)), starts] = 0
        reached = frontier.copy()
        level = 0
        while frontier.any():
            level += 1
            # (S, k) @ (k, k) boolean product: nodes adjacent to the frontier.
            nxt = (frontier @ self.adjacency) & ~reached
            dist[nxt] = level
            reached |= nxt
            frontier = nxt
        return dist

    def transport_vector_ms(self, u_index: int, message_bytes: float, *,
                            include_link_delay: bool = True) -> np.ndarray:
        """``(k,)`` vector of transport times from node index ``u_index``.

        Entry ``v`` is :math:`m/b_{u,v} + d_{u,v}` in ms where a link exists
        and ``inf`` elsewhere (including ``v == u``); the element-wise
        operations mirror :func:`repro.model.link.transfer_time_ms` term for
        term, like :meth:`transport_matrix_ms` does for the full matrix.
        """
        if message_bytes < 0:
            raise SpecificationError(
                f"message size must be >= 0, got {message_bytes!r}")
        with np.errstate(divide="ignore", invalid="ignore"):
            seconds = (message_bytes * BITS_PER_BYTE
                       / self.bandwidth_bits_per_s[u_index])
            times = seconds * 1e3
            if include_link_delay:
                times = times + self.link_delay[u_index]
        return np.where(self.adjacency[u_index], times, np.inf)

    def transport_matrix_ms(self, message_bytes: float, *,
                            include_link_delay: bool = True) -> np.ndarray:
        """``(k, k)`` matrix of link transport times for one message size.

        Entry ``[i, j]`` is :math:`m/b_{i,j} + d_{i,j}` in milliseconds where a
        link exists and ``inf`` elsewhere (including the diagonal — intra-node
        transfers are handled by the solvers' same-node sub-case).  The
        element-wise operations mirror
        :func:`repro.model.link.transfer_time_ms` term for term so the dense
        engine reproduces the scalar DP bit for bit.
        """
        if message_bytes < 0:
            raise SpecificationError(
                f"message size must be >= 0, got {message_bytes!r}")
        with np.errstate(divide="ignore", invalid="ignore"):
            seconds = message_bytes * BITS_PER_BYTE / self.bandwidth_bits_per_s
            times = seconds * 1e3
            if include_link_delay:
                times = times + self.link_delay
        return np.where(self.adjacency, times, np.inf)


class TransportNetwork:
    """An arbitrary-topology network of heterogeneous nodes and links.

    The network is undirected: a link registered between ``u`` and ``v`` can
    carry traffic in both directions with the same bandwidth and minimum link
    delay, matching the paper's model in which :math:`L_{i,j}` is a property
    of the node pair.

    Mutation comes in two flavours with different dense-view costs:

    * **Structural** edits — :meth:`add_node` / :meth:`add_link` /
      :meth:`remove_node` / :meth:`remove_link` — change the topology, drop
      the cached dense view and clear the scalar-edit journal; the next
      :meth:`dense_view` call pays a full O(k²) rebuild.
    * **Scalar** edits — :meth:`set_processing_power` / :meth:`set_bandwidth`
      / :meth:`set_link_delay` — keep the topology fixed and *patch* the
      cached view copy-on-write instead (bit-identical to a rebuild), append
      a :class:`ViewDelta` to the journal and bump :attr:`view_epoch`, so
      delta-aware consumers (warm-started solvers, ledgers, the service
      interner) can re-derive only what actually changed via
      :meth:`delta_since`.

    Mapping algorithms treat the network as read-only either way.
    """

    def __init__(self, nodes: Iterable[ComputingNode] = (),
                 links: Iterable[CommunicationLink] = (),
                 *, name: Optional[str] = None) -> None:
        #: Undirected adjacency: each node's neighbours in link-insertion
        #: order (the order a networkx adjacency would iterate them in).
        self._adj: Dict[NodeId, Dict[NodeId, None]] = {}
        self._nx_graph: Optional["nx.Graph"] = None
        self._nodes: Dict[NodeId, ComputingNode] = {}
        self._links: Dict[Tuple[NodeId, NodeId], CommunicationLink] = {}
        self._next_link_id = 0
        self._dense_view: Optional[DenseNetworkView] = None
        self._view_epoch = 0
        self._view_deltas: List[ViewDelta] = []
        #: Scalar edits applied as copy-on-write view patches (no rebuild).
        self.delta_patches_total = 0
        #: Full dense-view constructions (initial builds and post-structural
        #: rebuilds alike).
        self.rebuilds_total = 0
        self.name = name
        for node in nodes:
            self.add_node(node)
        for link in links:
            self.add_link(link)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_node(self, node: ComputingNode) -> None:
        """Register a computing node.  Node ids must be unique."""
        if node.node_id in self._nodes:
            raise SpecificationError(f"duplicate node_id {node.node_id}")
        self._nodes[node.node_id] = node
        self._adj[node.node_id] = {}
        self._invalidate_view()

    def add_link(self, link: CommunicationLink) -> None:
        """Register a communication link.  Both endpoints must already exist."""
        u, v = link.start_node, link.end_node
        if u not in self._nodes or v not in self._nodes:
            raise SpecificationError(
                f"link ({u},{v}) references an unknown node; add nodes first")
        key = self._edge_key(u, v)
        if key in self._links:
            raise SpecificationError(f"duplicate link between nodes {u} and {v}")
        if link.link_id is None:
            link = CommunicationLink(
                start_node=link.start_node,
                end_node=link.end_node,
                bandwidth_mbps=link.bandwidth_mbps,
                min_delay_ms=link.min_delay_ms,
                link_id=self._next_link_id,
                metadata=dict(link.metadata),
            )
        self._next_link_id = max(self._next_link_id + 1,
                                 (link.link_id or 0) + 1)
        self._links[key] = link
        self._adj[u][v] = None
        self._adj[v][u] = None
        self._invalidate_view()

    def remove_link(self, u: NodeId, v: NodeId) -> CommunicationLink:
        """Remove the link between ``u`` and ``v`` (structural edit).

        Returns the removed :class:`CommunicationLink`.  Raises
        :class:`SpecificationError` if no such link exists.
        """
        key = self._edge_key(u, v)
        try:
            link = self._links.pop(key)
        except KeyError:
            raise SpecificationError(
                f"no link between nodes {u} and {v}") from None
        del self._adj[u][v]
        del self._adj[v][u]
        self._invalidate_view()
        return link

    def remove_node(self, node_id: NodeId) -> ComputingNode:
        """Remove a node and every link incident to it (structural edit).

        Returns the removed :class:`ComputingNode`.  Raises
        :class:`SpecificationError` if the node is unknown.
        """
        try:
            node = self._nodes.pop(node_id)
        except KeyError:
            raise SpecificationError(f"unknown node_id {node_id}") from None
        for nbr in self._adj.pop(node_id):
            del self._adj[nbr][node_id]
            del self._links[self._edge_key(node_id, nbr)]
        self._invalidate_view()
        return node

    def connect(self, u: NodeId, v: NodeId, bandwidth_mbps: float,
                min_delay_ms: float = 0.0) -> CommunicationLink:
        """Convenience wrapper: create and register a link between ``u`` and ``v``."""
        link = CommunicationLink(start_node=u, end_node=v,
                                 bandwidth_mbps=bandwidth_mbps,
                                 min_delay_ms=min_delay_ms)
        self.add_link(link)
        return self._links[self._edge_key(u, v)]

    # ------------------------------------------------------------------ #
    # Incremental view lifecycle (scalar edits, epochs, delta journal)
    # ------------------------------------------------------------------ #
    @property
    def view_epoch(self) -> int:
        """Monotone edit counter; bumped by every mutation after construction.

        Consumers that cached results against a given :meth:`dense_view`
        compare epochs to detect drift, and call :meth:`delta_since` to learn
        whether the drift is scalar-only (patchable) or structural (rebuild).
        """
        return self._view_epoch

    def _invalidate_view(self) -> None:
        """Structural edit: drop the cached view and the scalar-edit journal."""
        self._dense_view = None
        self._nx_graph = None
        self._view_epoch += 1
        self._view_deltas.clear()

    def delta_since(self, epoch: int) -> Optional[ViewDelta]:
        """Merged scalar-edit delta from ``epoch`` to :attr:`view_epoch`.

        Returns an empty :class:`ViewDelta` when nothing changed, a merged
        delta when every intervening edit was scalar, and ``None`` when the
        journal cannot bridge the gap (a structural edit intervened, the
        journal was trimmed, or ``epoch`` is from the future) — callers must
        then fall back to a cold rebuild.
        """
        current = self._view_epoch
        if epoch == current:
            return ViewDelta(base_epoch=epoch, epoch=current)
        if epoch > current:
            return None
        # One pass from the first entry past ``epoch`` (the journal ascends
        # by epoch): check the chain, take one union, sort once.
        rows: set = set()
        cells: set = set()
        reached = epoch
        first = bisect_right(self._view_deltas, epoch,
                             key=attrgetter("epoch"))
        for entry in islice(self._view_deltas, first, None):
            if entry.base_epoch != reached:
                return None  # journal trimmed below ``epoch``, or a gap
            rows.update(entry.node_rows)
            cells.update(entry.link_cells)
            reached = entry.epoch
        if reached != current:
            return None
        return ViewDelta(base_epoch=epoch, epoch=current,
                         node_rows=tuple(sorted(rows)),
                         link_cells=tuple(sorted(cells)))

    def _row_index(self, node_id: NodeId) -> int:
        if self._dense_view is not None:
            return self._dense_view.index_of[node_id]
        return self.node_ids().index(node_id)

    def _cell_key(self, u: NodeId, v: NodeId) -> Tuple[int, int]:
        i, j = self._row_index(u), self._row_index(v)
        return (i, j) if i <= j else (j, i)

    def _record_scalar_edit(self, node_rows: Tuple[int, ...] = (),
                            link_cells: Tuple[Tuple[int, int], ...] = ()) -> None:
        base = self._view_epoch
        self._view_epoch = base + 1
        self._nx_graph = None
        self._view_deltas.append(ViewDelta(
            base_epoch=base, epoch=self._view_epoch,
            node_rows=node_rows, link_cells=link_cells))
        if len(self._view_deltas) > _VIEW_JOURNAL_LIMIT:
            del self._view_deltas[:len(self._view_deltas) - _VIEW_JOURNAL_LIMIT]
        self.delta_patches_total += 1
        if self._dense_view is not None:
            view = self._dense_view
            node_powers = {row: self._nodes[view.node_ids[row]].processing_power
                           for row in node_rows}
            link_values = {}
            for i, j in link_cells:
                link = self._links[self._edge_key(view.node_ids[i],
                                                  view.node_ids[j])]
                link_values[(i, j)] = (link.bandwidth_mbps, link.min_delay_ms)
            self._dense_view = view.patched(
                epoch=self._view_epoch,
                node_powers=node_powers or None,
                link_values=link_values or None)

    def set_processing_power(self, node_id: NodeId, processing_power: float) -> None:
        """Scalar edit: change one node's processing power (MIPS).

        Patches the cached dense view copy-on-write and journals a
        :class:`ViewDelta` instead of forcing a rebuild.  A no-op when the
        value is unchanged.
        """
        node = self.node(node_id)
        if float(processing_power) == node.processing_power:
            return
        self._nodes[node_id] = node.with_power(processing_power)
        self._record_scalar_edit(node_rows=(self._row_index(node_id),))

    def set_bandwidth(self, u: NodeId, v: NodeId, bandwidth_mbps: float) -> None:
        """Scalar edit: change one link's bandwidth (Mbit/s).  See
        :meth:`set_processing_power` for the journaling contract."""
        link = self.link(u, v)
        if float(bandwidth_mbps) == link.bandwidth_mbps:
            return
        key = self._edge_key(u, v)
        self._links[key] = link.with_bandwidth(bandwidth_mbps)
        self._record_scalar_edit(link_cells=(self._cell_key(u, v),))

    def set_link_delay(self, u: NodeId, v: NodeId, min_delay_ms: float) -> None:
        """Scalar edit: change one link's minimum delay (ms).  See
        :meth:`set_processing_power` for the journaling contract."""
        link = self.link(u, v)
        if float(min_delay_ms) == link.min_delay_ms:
            return
        key = self._edge_key(u, v)
        self._links[key] = _dc_replace(link, min_delay_ms=float(min_delay_ms))
        self._record_scalar_edit(link_cells=(self._cell_key(u, v),))

    @staticmethod
    def _edge_key(u: NodeId, v: NodeId) -> Tuple[NodeId, NodeId]:
        return (u, v) if u <= v else (v, u)

    # ------------------------------------------------------------------ #
    # Basic queries
    # ------------------------------------------------------------------ #
    @property
    def n_nodes(self) -> int:
        """Number of computing nodes :math:`k = |V|`."""
        return len(self._nodes)

    @property
    def n_links(self) -> int:
        """Number of communication links :math:`|E|`."""
        return len(self._links)

    @property
    def graph(self) -> "nx.Graph":
        """The topology as a :class:`networkx.Graph` (treat as read-only).

        Built on first access (this is what imports networkx) and cached as a
        snapshot until the next edit of any kind; an edit does not update a
        graph obtained earlier.  Nodes come in insertion order, edges in
        link-insertion order, and every edge carries ``bandwidth_mbps``,
        ``min_delay_ms`` and ``link_id``.
        """
        if self._nx_graph is None:
            import networkx as nx

            graph = nx.Graph()
            graph.add_nodes_from(self._adj)
            for link in self._links.values():
                graph.add_edge(link.start_node, link.end_node,
                               bandwidth_mbps=link.bandwidth_mbps,
                               min_delay_ms=link.min_delay_ms,
                               link_id=link.link_id)
            self._nx_graph = graph
        return self._nx_graph

    def node_ids(self) -> List[NodeId]:
        """All node ids, sorted ascending."""
        return sorted(self._nodes)

    def nodes(self) -> List[ComputingNode]:
        """All node objects, sorted by id."""
        return [self._nodes[nid] for nid in self.node_ids()]

    def links(self) -> List[CommunicationLink]:
        """All link objects, sorted by endpoint pair."""
        return [self._links[key] for key in sorted(self._links)]

    def node(self, node_id: NodeId) -> ComputingNode:
        """The node object with id ``node_id``."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise SpecificationError(f"unknown node_id {node_id}") from None

    def has_node(self, node_id: NodeId) -> bool:
        """``True`` if ``node_id`` is a registered node."""
        return node_id in self._nodes

    def has_link(self, u: NodeId, v: NodeId) -> bool:
        """``True`` if nodes ``u`` and ``v`` are directly connected."""
        return self._edge_key(u, v) in self._links

    def link(self, u: NodeId, v: NodeId) -> CommunicationLink:
        """The link object joining ``u`` and ``v`` (either orientation)."""
        try:
            return self._links[self._edge_key(u, v)]
        except KeyError:
            raise SpecificationError(f"no link between nodes {u} and {v}") from None

    def neighbors(self, node_id: NodeId) -> List[NodeId]:
        """Ids of nodes directly connected to ``node_id``, sorted ascending."""
        if node_id not in self._nodes:
            raise SpecificationError(f"unknown node_id {node_id}")
        return sorted(self._adj[node_id])

    def degree(self, node_id: NodeId) -> int:
        """Number of links incident to ``node_id``."""
        return len(self.neighbors(node_id))

    def processing_power(self, node_id: NodeId) -> float:
        """Processing power :math:`p_i` of node ``node_id``."""
        return self.node(node_id).processing_power

    def bandwidth(self, u: NodeId, v: NodeId) -> float:
        """Bandwidth (Mbit/s) of the link between ``u`` and ``v``."""
        return self.link(u, v).bandwidth_mbps

    def min_delay(self, u: NodeId, v: NodeId) -> float:
        """Minimum link delay (ms) of the link between ``u`` and ``v``."""
        return self.link(u, v).min_delay_ms

    def is_connected(self) -> bool:
        """``True`` if every node can reach every other node."""
        if self.n_nodes == 0:
            return False
        return len(self._bfs_depths(next(iter(self._adj)))) == self.n_nodes

    def is_complete(self) -> bool:
        """``True`` if the topology is a complete graph (dedicated environment)."""
        k = self.n_nodes
        return self.n_links == k * (k - 1) // 2

    def __contains__(self, node_id: object) -> bool:
        return node_id in self._nodes

    def __len__(self) -> int:
        return self.n_nodes

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self.node_ids())

    # ------------------------------------------------------------------ #
    # Path queries used by mapping algorithms
    # ------------------------------------------------------------------ #
    def is_walk(self, path: Sequence[NodeId]) -> bool:
        """``True`` if consecutive entries of ``path`` are equal or adjacent.

        A mapping path may keep consecutive module groups on the same node
        (node reuse), which is represented by repeating the node id; this
        helper therefore accepts repetitions.
        """
        if not path:
            return False
        if any(nid not in self._nodes for nid in path):
            return False
        for u, v in zip(path, path[1:]):
            if u != v and not self.has_link(u, v):
                return False
        return True

    def _check_endpoints(self, source: NodeId, destination: NodeId) -> None:
        if source not in self._nodes or destination not in self._nodes:
            raise SpecificationError("unknown endpoint node id")

    def _bfs_depths(self, source: NodeId,
                    stop: Optional[NodeId] = None) -> Dict[NodeId, int]:
        """Hop depth of every node reachable from ``source``.

        Stops as soon as ``stop`` is reached, so the result then holds
        ``stop`` and whatever was discovered before it.
        """
        depth = {source: 0}
        queue = deque([source])
        while queue and stop not in depth:
            u = queue.popleft()
            for v in self._adj[u]:
                if v not in depth:
                    depth[v] = depth[u] + 1
                    queue.append(v)
        return depth

    def hop_distance(self, source: NodeId, destination: NodeId) -> int:
        """Minimum number of hops between two nodes (``-1`` if unreachable)."""
        self._check_endpoints(source, destination)
        return self._bfs_depths(source, destination).get(destination, -1)

    def shortest_transfer_path(self, source: NodeId, destination: NodeId,
                               message_bytes: float) -> Tuple[NodePath, float]:
        """Minimum-latency multi-hop route for a message of ``message_bytes``.

        Edge weight is the link transfer time :math:`m/b + d` for the given
        message size.  Returns ``(path, total_time_ms)``; a zero-hop path
        (``source == destination``) costs 0 ms.  Used by baseline mappers that
        may place consecutive modules on non-adjacent nodes and must route the
        intermediate traffic.
        """
        import networkx as nx

        self._check_endpoints(source, destination)
        if source == destination:
            return [source], 0.0

        def weight(u: NodeId, v: NodeId, _attrs: Dict[str, Any]) -> float:
            link = self.link(u, v)
            return link.transport_time_ms(message_bytes)

        try:
            path = nx.dijkstra_path(self.graph, source, destination, weight=weight)
        except nx.NetworkXNoPath:
            raise SpecificationError(
                f"no route between nodes {source} and {destination}") from None
        total = sum(self.link(u, v).transport_time_ms(message_bytes)
                    for u, v in zip(path, path[1:]))
        return list(path), total

    def widest_path(self, source: NodeId, destination: NodeId) -> Tuple[NodePath, float]:
        """Maximum-bottleneck-bandwidth route between two nodes.

        Returns ``(path, bottleneck_bandwidth_mbps)``.  The zero-hop path has
        infinite bottleneck bandwidth.  Implemented as a maximum-capacity
        variant of Dijkstra's algorithm.
        """
        self._check_endpoints(source, destination)
        if source == destination:
            return [source], float("inf")
        best: Dict[NodeId, float] = {nid: 0.0 for nid in self._nodes}
        prev: Dict[NodeId, Optional[NodeId]] = {nid: None for nid in self._nodes}
        best[source] = float("inf")
        heap: List[Tuple[float, NodeId]] = [(-best[source], source)]
        visited: set = set()
        while heap:
            neg_cap, u = heapq.heappop(heap)
            cap = -neg_cap
            if u in visited:
                continue
            visited.add(u)
            if u == destination:
                break
            for v in self._adj[u]:
                if v in visited:
                    continue
                through = min(cap, self.bandwidth(u, v))
                if through > best[v]:
                    best[v] = through
                    prev[v] = u
                    heapq.heappush(heap, (-through, v))
        if best[destination] <= 0.0:
            raise SpecificationError(
                f"no route between nodes {source} and {destination}")
        path: NodePath = [destination]
        while prev[path[-1]] is not None:
            path.append(prev[path[-1]])  # type: ignore[arg-type]
        path.reverse()
        return path, best[destination]

    # ------------------------------------------------------------------ #
    # Aggregate statistics (used by generators, reporting and Streamline)
    # ------------------------------------------------------------------ #
    def total_processing_power(self) -> float:
        """Sum of node processing powers."""
        return sum(n.processing_power for n in self._nodes.values())

    def mean_bandwidth(self) -> float:
        """Mean link bandwidth in Mbit/s (0 for an edgeless network)."""
        if not self._links:
            return 0.0
        return float(np.mean([l.bandwidth_mbps for l in self._links.values()]))

    def node_communication_capacity(self, node_id: NodeId) -> float:
        """Sum of bandwidths of links incident to ``node_id`` (Mbit/s).

        The Streamline heuristic ranks resources by both computation and
        communication capability; this is the communication half.
        """
        return sum(self.bandwidth(node_id, nbr) for nbr in self.neighbors(node_id))

    def density(self) -> float:
        """Edge density ``|E| / (k·(k-1)/2)`` in ``[0, 1]``."""
        k = self.n_nodes
        if k < 2:
            return 0.0
        return self.n_links / (k * (k - 1) / 2)

    # ------------------------------------------------------------------ #
    # Dense array views (tensor solver engine)
    # ------------------------------------------------------------------ #
    def dense_view(self) -> DenseNetworkView:
        """Cached dense array snapshot of the topology and its attributes.

        The first call after a structural mutation materialises the
        node-index map, the processing-power vector, the adjacency matrix
        and the CSR edge layout with its bandwidth / link-delay vectors;
        subsequent calls return the same
        :class:`DenseNetworkView` instance until :meth:`add_node` /
        :meth:`add_link` / :meth:`remove_node` / :meth:`remove_link`
        invalidates it.  Scalar edits (:meth:`set_processing_power`,
        :meth:`set_bandwidth`, :meth:`set_link_delay`) do *not* invalidate:
        they swap in a copy-on-write patched view that shares every topology
        array with its predecessor and copies only O(k + |E|) values (see
        :meth:`DenseNetworkView.patched`).  The tensor ELPC engine
        (:mod:`repro.core.tensor`) and the warm engine rely on this so
        repeated solves over one topology pay the O(k²) construction only once.
        """
        if self._dense_view is not None:
            return self._dense_view
        if not self._nodes:
            raise SpecificationError("cannot build a dense view of an empty network")
        ids = tuple(self.node_ids())
        index = {nid: i for i, nid in enumerate(ids)}
        k = len(ids)
        power = np.array([self._nodes[nid].processing_power for nid in ids],
                         dtype=float)
        adjacency = np.zeros((k, k), dtype=bool)
        bandwidth = np.zeros((k, k), dtype=float)
        link_delay = np.zeros((k, k), dtype=float)
        for (u, v), link in self._links.items():
            i, j = index[u], index[v]
            adjacency[i, j] = adjacency[j, i] = True
            bandwidth[i, j] = bandwidth[j, i] = link.bandwidth_mbps
            link_delay[i, j] = link_delay[j, i] = link.min_delay_ms
        # DenseNetworkView.build derives the CSR edge layout, its transport
        # vectors and the neighbour lists, and freezes every array so a caller
        # mutating them gets an error instead of silently corrupting all later
        # array solves on this network.
        self.rebuilds_total += 1
        self._dense_view = DenseNetworkView.build(
            ids, power, adjacency, bandwidth, link_delay,
            epoch=self._view_epoch)
        return self._dense_view

    # ------------------------------------------------------------------ #
    # Adjacency-matrix import/export (paper Section 4.1)
    # ------------------------------------------------------------------ #
    def adjacency_matrix(self) -> np.ndarray:
        """Boolean adjacency matrix ordered by ascending node id."""
        ids = self.node_ids()
        index = {nid: i for i, nid in enumerate(ids)}
        mat = np.zeros((len(ids), len(ids)), dtype=bool)
        for (u, v) in self._links:
            mat[index[u], index[v]] = True
            mat[index[v], index[u]] = True
        return mat

    def bandwidth_matrix(self) -> np.ndarray:
        """Matrix of link bandwidths (Mbit/s); 0 where no link exists."""
        ids = self.node_ids()
        index = {nid: i for i, nid in enumerate(ids)}
        mat = np.zeros((len(ids), len(ids)), dtype=float)
        for (u, v), link in self._links.items():
            mat[index[u], index[v]] = link.bandwidth_mbps
            mat[index[v], index[u]] = link.bandwidth_mbps
        return mat

    def delay_matrix(self) -> np.ndarray:
        """Matrix of minimum link delays (ms); 0 where no link exists."""
        ids = self.node_ids()
        index = {nid: i for i, nid in enumerate(ids)}
        mat = np.zeros((len(ids), len(ids)), dtype=float)
        for (u, v), link in self._links.items():
            mat[index[u], index[v]] = link.min_delay_ms
            mat[index[v], index[u]] = link.min_delay_ms
        return mat

    @classmethod
    def from_matrices(cls, powers: Sequence[float], bandwidth: np.ndarray,
                      delay: Optional[np.ndarray] = None,
                      *, name: Optional[str] = None) -> "TransportNetwork":
        """Build a network from a power vector and bandwidth/delay matrices.

        ``bandwidth[i, j] > 0`` declares a link between nodes ``i`` and ``j``;
        the matrices must be symmetric with a zero diagonal, matching the
        paper's adjacency-matrix dataset format.
        """
        bw = np.asarray(bandwidth, dtype=float)
        k = len(powers)
        if bw.shape != (k, k):
            raise SpecificationError(
                f"bandwidth matrix shape {bw.shape} does not match {k} nodes")
        if not np.allclose(bw, bw.T):
            raise SpecificationError("bandwidth matrix must be symmetric")
        if np.any(np.diag(bw) != 0):
            raise SpecificationError("bandwidth matrix diagonal must be zero")
        if delay is None:
            dl = np.zeros_like(bw)
        else:
            dl = np.asarray(delay, dtype=float)
            if dl.shape != bw.shape:
                raise SpecificationError("delay matrix shape mismatch")
            if not np.allclose(dl, dl.T):
                raise SpecificationError("delay matrix must be symmetric")
        net = cls(name=name)
        for nid, power in enumerate(powers):
            net.add_node(ComputingNode(node_id=nid, processing_power=float(power)))
        for i in range(k):
            for j in range(i + 1, k):
                if bw[i, j] > 0:
                    net.connect(i, j, bandwidth_mbps=float(bw[i, j]),
                                min_delay_ms=float(dl[i, j]))
        return net

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """Serialise to a plain (JSON-compatible) dictionary."""
        return {
            "name": self.name,
            "nodes": [n.to_dict() for n in self.nodes()],
            "links": [l.to_dict() for l in self.links()],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TransportNetwork":
        """Reconstruct a network from :meth:`to_dict` output."""
        return cls(
            nodes=(ComputingNode.from_dict(n) for n in data["nodes"]),
            links=(CommunicationLink.from_dict(l) for l in data["links"]),
            name=data.get("name"),
        )

    def copy(self) -> "TransportNetwork":
        """Deep copy of the network (nodes and links are immutable, so shared)."""
        return TransportNetwork(nodes=self.nodes(), links=self.links(), name=self.name)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        label = self.name or "network"
        return f"{label}[k={self.n_nodes}, |E|={self.n_links}]"


@dataclass(frozen=True)
class EndToEndRequest:
    """A mapping request: which pipeline to place between which two nodes.

    The paper designates "a source node and a destination node to run the
    first module and the last module of the pipeline ... the system knows
    where the raw data is stored and where an end user is located".
    """

    source: NodeId
    destination: NodeId

    def validate(self, network: TransportNetwork) -> None:
        """Raise :class:`SpecificationError` if either endpoint is unknown."""
        if not network.has_node(self.source):
            raise SpecificationError(f"unknown source node {self.source}")
        if not network.has_node(self.destination):
            raise SpecificationError(f"unknown destination node {self.destination}")
