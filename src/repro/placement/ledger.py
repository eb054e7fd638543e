"""The cluster capacity ledger: who is using how much of which resource.

:class:`ClusterState` layers two budget arrays over a network's cached dense
view (:meth:`repro.TransportNetwork.dense_view`):

* ``node_remaining`` — per-node compute budget in **operations per second**.
  The cost model says a module of workload :math:`w = c\\,m` operations takes
  :math:`w / (p \\cdot 10^3)` ms on a node of power :math:`p` (millions of
  ops/s), so a node of power :math:`p` sustains :math:`p \\cdot 10^6` ops/s —
  that is its default capacity, scaled by ``node_capacity_factor``.
* ``link_remaining`` — per-link bandwidth budget in **bits per second**
  (``bandwidth_mbps * 1e6``, scaled by ``link_capacity_factor``), one shared
  budget per *undirected* link: traffic in both directions draws from it.

A placed pipeline streaming at ``demand_fps`` frames per second demands
``demand_fps * workload(modules on v)`` ops/s from every node it computes on
and ``demand_fps * 8 * message_bytes`` bits/s from every link its path
crosses (:meth:`ClusterState.demand_of`).  ``commit`` is atomic — it checks
every component first and raises :class:`~repro.exceptions.CapacityError`
without mutating anything when one budget would go negative — and every
committed demand is retained so :meth:`ClusterState.validate` can re-derive
the remaining arrays from scratch and the batch validator
(:func:`validate_placements`) can replay a whole placement result against a
fresh ledger.

Every budget lives in the ledger's own NumPy arrays behind its own
``threading.RLock``: ``commit``, ``release``, ``snapshot``, ``restore`` and
every multi-element query hold it, so concurrent committers in one process
see consistent budgets.  Several processes never share one ledger: a
pre-fork service fleet admits through one owner in its supervisor
(:mod:`repro.service.admission`), which holds plain ``ClusterState``
ledgers and answers the replicas over pipes.

Floating-point note: budgets are compared with a relative slack of
``1e-9 * capacity`` so a pipeline whose demand *exactly* equals the budget is
admitted despite rounding; the validator applies the same slack.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass
from typing import (Any, Dict, Iterable, Iterator, List, Mapping, Optional,
                    Sequence, Tuple)

import numpy as np

from ..core.mapping import PipelineMapping
from ..exceptions import CapacityError, SpecificationError
from ..model.link import BITS_PER_BYTE, MEGABIT
from ..model.network import TransportNetwork
from ..types import NodeId

__all__ = ["PlacementDemand", "CapacityViolation", "ClusterState",
           "validate_placements"]

#: Relative slack applied to every budget comparison (see module notes).
_REL_SLACK = 1e-9


def _link_key(u: NodeId, v: NodeId) -> Tuple[NodeId, NodeId]:
    """Canonical undirected key of the link ``u``–``v``."""
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class PlacementDemand:
    """Steady-state resource demand of one mapping at a given frame rate.

    Attributes
    ----------
    nodes:
        ``node_id -> ops/s`` drawn from each node the mapping computes on
        (zero-workload entries are dropped).
    links:
        ``(u, v) -> bits/s`` drawn from each undirected link the mapping's
        path crosses, both directions pooled (zero-byte messages dropped).
    demand_fps:
        The frame rate the demand was computed at.
    """

    nodes: Mapping[NodeId, float]
    links: Mapping[Tuple[NodeId, NodeId], float]
    demand_fps: float = 1.0

    @property
    def total_node_ops(self) -> float:
        """Total compute demand over all nodes, ops/s."""
        return float(sum(self.nodes.values()))

    @property
    def total_link_bits(self) -> float:
        """Total bandwidth demand over all links, bits/s."""
        return float(sum(self.links.values()))


@dataclass(frozen=True)
class CapacityViolation:
    """One budget a demand would overdraw.

    ``kind`` is ``"node"`` or ``"link"``; ``where`` is the node id or the
    canonical ``(u, v)`` link key; ``needed``/``remaining`` are in the
    resource's own unit (ops/s, bits/s).
    """

    kind: str
    where: Any
    needed: float
    remaining: float

    def describe(self) -> str:
        """Human-readable one-liner (used in rejection reasons)."""
        unit = "ops/s" if self.kind == "node" else "bits/s"
        return (f"{self.kind} {self.where}: needs {self.needed:.6g} {unit}, "
                f"only {max(self.remaining, 0.0):.6g} remaining")


@dataclass
class _Snapshot:
    """Opaque ledger snapshot returned by :meth:`ClusterState.snapshot`."""

    node_remaining: np.ndarray
    link_remaining: Dict[Tuple[NodeId, NodeId], float]
    committed: Tuple[PlacementDemand, ...] = ()



class _LinkBudgetView(Mapping):
    """Live dict-like face of a ledger's link-remaining array.

    Keeps ``cluster.link_remaining[key]`` / ``.items()`` working like a dict
    while the budgets themselves live in one float64 array.  Item assignment
    writes through (the drain-a-link test pattern); keys are the ledger's
    canonical undirected link keys in capacity order.
    """

    def __init__(self, keys: Sequence[Tuple[NodeId, NodeId]],
                 index: Dict[Tuple[NodeId, NodeId], int],
                 values: np.ndarray) -> None:
        self._keys = keys
        self._index = index
        self._values = values

    def __getitem__(self, key: Tuple[NodeId, NodeId]) -> float:
        return float(self._values[self._index[key]])

    def __setitem__(self, key: Tuple[NodeId, NodeId], value: float) -> None:
        self._values[self._index[key]] = float(value)

    def __iter__(self) -> Iterator[Tuple[NodeId, NodeId]]:
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: object) -> bool:
        return key in self._index

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_LinkBudgetView({dict(self)!r})"


class ClusterState:
    """Per-node / per-link remaining-capacity ledger over one network.

    Build one with :meth:`from_network`; hand it to a placer
    (:func:`repro.place_many`) or drive it directly:
    :meth:`demand_of` → :meth:`fits` / :meth:`violations` → :meth:`commit` /
    :meth:`release`, with :meth:`snapshot` / :meth:`restore` bracketing any
    speculative sequence.  All arrays are indexed like the network's dense
    view (``view.index_of[node_id]``).  Every compound read-modify-write
    holds the ledger's own ``threading.RLock``, so concurrent committers in
    one process cannot jointly overdraw a budget both saw as free.
    """

    def __init__(self, network: TransportNetwork,
                 node_capacity: np.ndarray,
                 link_capacity: Dict[Tuple[NodeId, NodeId], float]) -> None:
        self.network = network
        self.view = network.dense_view()
        self.node_capacity = np.asarray(node_capacity, dtype=float).copy()
        if self.node_capacity.shape != (self.view.n_nodes,):
            raise SpecificationError(
                f"node_capacity must have shape ({self.view.n_nodes},), got "
                f"{self.node_capacity.shape}")
        if np.any(self.node_capacity < 0):
            raise SpecificationError("node capacities must be >= 0")
        self.link_capacity = dict(link_capacity)
        for key, cap in self.link_capacity.items():
            if cap < 0:
                raise SpecificationError(
                    f"link capacity of {key} must be >= 0, got {cap!r}")
        self._link_keys: List[Tuple[NodeId, NodeId]] = list(self.link_capacity)
        self._link_index: Dict[Tuple[NodeId, NodeId], int] = {
            key: i for i, key in enumerate(self._link_keys)}
        #: Live per-node remaining budgets (dense-view order), ops/s.
        self.node_remaining = self.node_capacity.copy()
        self._link_remaining = np.array(
            [self.link_capacity[key] for key in self._link_keys], dtype=float)
        self._lock = threading.RLock()
        #: Every currently-committed demand, in commit order (the validator's
        #: ground truth; release removes the entry by identity).
        self.committed: List[PlacementDemand] = []
        self.commits_total = 0
        self.releases_total = 0
        #: How the capacities were derived (set by :meth:`from_network`);
        #: ``None`` for explicit-capacity ledgers, which cannot
        #: :meth:`rebase` — their budgets carry no recipe to re-derive.
        self._capacity_policy: Optional[Dict[str, Any]] = None
        self.rebases_total = 0

    @property
    def link_remaining(self) -> _LinkBudgetView:
        """Live per-link remaining budgets as a mapping over canonical keys."""
        return _LinkBudgetView(self._link_keys, self._link_index,
                               self._link_remaining)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_network(cls, network: TransportNetwork, *,
                     node_capacity_factor: float = 1.0,
                     link_capacity_factor: float = 1.0,
                     node_capacity: Optional[Mapping[NodeId, float]] = None,
                     link_capacity: Optional[Mapping[Tuple[NodeId, NodeId],
                                                     float]] = None
                     ) -> "ClusterState":
        """Budgets derived from the network's own powers and bandwidths.

        Defaults: node budget = ``power * 1e6 * node_capacity_factor`` ops/s
        (a factor of 1.0 means the node may be loaded to exactly its rated
        power), link budget = ``bandwidth_mbps * 1e6 * link_capacity_factor``
        bits/s.  Factors < 1 model headroom policies; factors > 1 model
        deliberate oversubscription.  Explicit per-node / per-link overrides
        (``node_capacity`` / ``link_capacity`` mappings) replace the derived
        value for the listed entries only — the zero-capacity-node tests use
        this to drain individual nodes.
        """
        if node_capacity_factor < 0 or link_capacity_factor < 0:
            raise SpecificationError("capacity factors must be >= 0")
        view = network.dense_view()
        node_cap = view.power * (MEGABIT * node_capacity_factor)
        node_cap = np.asarray(node_cap, dtype=float).copy()
        if node_capacity:
            for node_id, cap in node_capacity.items():
                if node_id not in view.index_of:
                    raise SpecificationError(
                        f"node_capacity names unknown node {node_id!r}")
                node_cap[view.index_of[node_id]] = float(cap)
        link_cap: Dict[Tuple[NodeId, NodeId], float] = {}
        for link in network.links():
            key = _link_key(link.start_node, link.end_node)
            link_cap[key] = link.bandwidth_mbps * MEGABIT * link_capacity_factor
        if link_capacity:
            for raw_key, cap in link_capacity.items():
                key = _link_key(*raw_key)
                if key not in link_cap:
                    raise SpecificationError(
                        f"link_capacity names unknown link {raw_key!r}")
                link_cap[key] = float(cap)
        state = cls(network, node_cap, link_cap)
        state._capacity_policy = {
            "node_capacity_factor": float(node_capacity_factor),
            "link_capacity_factor": float(link_capacity_factor),
            "node_capacity": dict(node_capacity) if node_capacity else {},
            "link_capacity": ({_link_key(*k): float(v)
                               for k, v in link_capacity.items()}
                              if link_capacity else {}),
        }
        return state

    # ------------------------------------------------------------------ #
    # Incremental re-derivation
    # ------------------------------------------------------------------ #
    def rebase(self) -> List[CapacityViolation]:
        """Re-derive the budgets from the network's *current* dense view.

        After the network drifts through scalar edits (or is structurally
        rebuilt), a :meth:`from_network` ledger can rebase instead of being
        thrown away: capacities are recomputed with the stored policy
        (factors + overrides) and every surviving node or link budget moves
        by exactly its capacity change, so the commitments it carries —
        admissions survive the drift — stay charged and an unchanged budget
        stays bit-identical.  The cost is one pass over nodes and links, not
        over the committed demands.  Returns the budgets the surviving
        commitments now overdraw (capacity shrank under load); callers
        decide whether to evict (:meth:`release`) or tolerate the debt.  A
        no-op (empty list) when the view is unchanged.

        Raises
        ------
        SpecificationError
            If the ledger was built with explicit capacity arrays (no stored
            policy to re-derive from).
        CapacityError
            If a committed demand names a node or link the drifted network no
            longer has — structural churn must release placements first.
        """
        if self._capacity_policy is None:
            raise SpecificationError(
                "this ledger was built from explicit capacity arrays; only "
                "ClusterState.from_network ledgers can rebase()")
        with self._lock:
            view = self.network.dense_view()
            if view is self.view:
                return []
            policy = self._capacity_policy
            fresh = ClusterState.from_network(
                self.network,
                node_capacity_factor=policy["node_capacity_factor"],
                link_capacity_factor=policy["link_capacity_factor"],
                node_capacity=policy["node_capacity"] or None,
                link_capacity=policy["link_capacity"] or None)
            gone_nodes = set(self.view.index_of) - set(fresh.view.index_of)
            gone_links = set(self.link_capacity) - set(fresh.link_capacity)
            for demand in self.committed if gone_nodes or gone_links else ():
                for node_id in gone_nodes.intersection(demand.nodes):
                    raise CapacityError(
                        f"committed demand draws on node {node_id!r}, "
                        "which the drifted network no longer has — "
                        "release the placement before rebasing")
                for key in gone_links.intersection(demand.links):
                    raise CapacityError(
                        f"committed demand draws on link {key!r}, which "
                        "the drifted network no longer has — release the "
                        "placement before rebasing")
            # fresh's budgets are its full capacities; shift each surviving
            # one down by what this ledger has drawn from it.
            for node_id, old in self.view.index_of.items():
                new = fresh.view.index_of.get(node_id)
                if new is not None:
                    fresh.node_remaining[new] = self.node_remaining[old] + (
                        fresh.node_capacity[new] - self.node_capacity[old])
            for key, old in self._link_index.items():
                new = fresh._link_index.get(key)
                if new is not None:
                    fresh._link_remaining[new] = self._link_remaining[old] + (
                        fresh.link_capacity[key] - self.link_capacity[key])
            self.view = fresh.view
            self.node_capacity = fresh.node_capacity
            self.link_capacity = fresh.link_capacity
            self._link_keys = fresh._link_keys
            self._link_index = fresh._link_index
            self.node_remaining = fresh.node_remaining
            self._link_remaining = fresh._link_remaining
            violations: List[CapacityViolation] = []
            for index in np.flatnonzero(
                    self.node_remaining
                    < -np.maximum(_REL_SLACK,
                                  _REL_SLACK * self.node_capacity)):
                remaining = float(self.node_remaining[index])
                violations.append(CapacityViolation(
                    "node", self.view.node_ids[int(index)],
                    float(self.node_capacity[index]) - remaining, remaining))
            for index, key in enumerate(self._link_keys):
                remaining = float(self._link_remaining[index])
                cap = self.link_capacity[key]
                if remaining < -self._slack(cap):
                    violations.append(CapacityViolation(
                        "link", key, cap - remaining, remaining))
            self.rebases_total += 1
        return violations

    # ------------------------------------------------------------------ #
    # Demand model
    # ------------------------------------------------------------------ #
    @staticmethod
    def demand_of(mapping: PipelineMapping, *,
                  demand_fps: float = 1.0) -> PlacementDemand:
        """The steady-state demand of ``mapping`` streaming at ``demand_fps``.

        Node demand pools every visit of a reused node (the same aggregation
        :func:`repro.model.cost.bottleneck_time_ms` applies with
        ``account_node_sharing=True``); link demand pools every crossing of a
        link in either direction.  A pure function of the mapping, so a
        caller without a ledger (a fleet replica) computes demands the same
        way the ledger's owner would.
        """
        if demand_fps < 0:
            raise SpecificationError(
                f"demand_fps must be >= 0, got {demand_fps!r}")
        pipeline = mapping.pipeline
        nodes: Dict[NodeId, float] = {}
        for group, node_id in zip(mapping.groups, mapping.path):
            load = pipeline.group_workload(group) * demand_fps
            if load > 0:
                nodes[node_id] = nodes.get(node_id, 0.0) + load
        links: Dict[Tuple[NodeId, NodeId], float] = {}
        for i in range(len(mapping.path) - 1):
            u, v = mapping.path[i], mapping.path[i + 1]
            if u == v:
                continue
            bits = (pipeline.group_output_bytes(mapping.groups[i])
                    * BITS_PER_BYTE * demand_fps)
            if bits > 0:
                key = _link_key(u, v)
                links[key] = links.get(key, 0.0) + bits
        return PlacementDemand(nodes=nodes, links=links, demand_fps=demand_fps)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def remaining_node(self, node_id: NodeId) -> float:
        """Remaining compute budget of a node, ops/s."""
        return float(self.node_remaining[self.view.index_of[node_id]])

    def remaining_link(self, u: NodeId, v: NodeId) -> float:
        """Remaining bandwidth budget of the undirected link ``u``–``v``, bits/s."""
        try:
            index = self._link_index[_link_key(u, v)]
        except KeyError:
            raise SpecificationError(f"no link {u}–{v} in the cluster") from None
        return float(self._link_remaining[index])

    def node_slack(self, node_id: NodeId) -> float:
        """The admission slack of a node's budget comparisons."""
        return self._slack(self.node_capacity[self.view.index_of[node_id]])

    def link_slack(self, u: NodeId, v: NodeId) -> float:
        """The admission slack of a link's budget comparisons."""
        key = _link_key(u, v)
        if key not in self.link_capacity:
            raise SpecificationError(f"no link {u}–{v} in the cluster")
        return self._slack(self.link_capacity[key])

    def node_budgets(self) -> List[Tuple[NodeId, float, float]]:
        """``(node_id, remaining, slack)`` per node — one consistent read.

        The placers' prefilters iterate this instead of reaching into the
        remaining arrays; the whole scan holds the ledger lock, so a
        concurrent committer cannot change it mid-iteration.
        """
        with self._lock:
            return [(node_id,
                     float(self.node_remaining[index]),
                     self._slack(self.node_capacity[index]))
                    for index, node_id in enumerate(self.view.node_ids)]

    def link_budgets(self) -> List[Tuple[Tuple[NodeId, NodeId], float, float]]:
        """``(link_key, remaining, slack)`` per link — one consistent read."""
        with self._lock:
            return [(key,
                     float(self._link_remaining[index]),
                     self._slack(self.link_capacity[key]))
                    for index, key in enumerate(self._link_keys)]

    def node_remaining_vector(self) -> np.ndarray:
        """A consistent *copy* of the per-node remaining budgets.

        The flow placer builds its arc capacities from this one read instead
        of sampling the live array per arc.
        """
        with self._lock:
            return self.node_remaining.copy()

    def _slack(self, capacity: float) -> float:
        return max(_REL_SLACK, _REL_SLACK * capacity)

    def violations(self, demand: PlacementDemand) -> List[CapacityViolation]:
        """Every budget ``demand`` would overdraw (empty = it fits)."""
        out: List[CapacityViolation] = []
        with self._lock:
            for node_id, needed in demand.nodes.items():
                index = self.view.index_of.get(node_id)
                if index is None:
                    raise SpecificationError(
                        f"demand names unknown node {node_id!r}")
                remaining = float(self.node_remaining[index])
                if needed > remaining + self._slack(self.node_capacity[index]):
                    out.append(CapacityViolation("node", node_id, needed,
                                                 remaining))
            for key, needed in demand.links.items():
                link_index = self._link_index.get(key)
                if link_index is None:
                    raise SpecificationError(
                        f"demand names unknown link {key!r}")
                remaining = float(self._link_remaining[link_index])
                if needed > remaining + self._slack(self.link_capacity[key]):
                    out.append(CapacityViolation("link", key, needed,
                                                 remaining))
        return out

    def fits(self, demand: PlacementDemand) -> bool:
        """``True`` when :meth:`commit` would succeed right now."""
        return not self.violations(demand)

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def commit(self, demand: PlacementDemand) -> PlacementDemand:
        """Atomically subtract ``demand`` from the remaining budgets.

        Raises :class:`~repro.exceptions.CapacityError` — without mutating
        any budget — when one component does not fit; the message lists every
        violated budget so rejection reasons are actionable.  Returns the
        demand so callers can retain it for a later :meth:`release`.  The
        check-then-charge sequence holds the ledger lock.
        """
        with self._lock:
            violations = self.violations(demand)
            if violations:
                raise CapacityError(
                    "placement exceeds remaining cluster capacity: "
                    + "; ".join(v.describe() for v in violations))
            for node_id, needed in demand.nodes.items():
                self.node_remaining[self.view.index_of[node_id]] -= needed
            for key, needed in demand.links.items():
                self._link_remaining[self._link_index[key]] -= needed
            self.committed.append(demand)
            self.commits_total += 1
        return demand

    def release(self, demand: PlacementDemand) -> None:
        """Return a previously committed demand's budgets to the pool.

        The demand must be one of :attr:`committed` (matched by object
        identity — the object :meth:`commit` returned); anything else raises
        :class:`SpecificationError` rather than silently inflating capacity.
        """
        self.release_many([demand])

    def release_many(self, demands: Sequence[PlacementDemand]) -> None:
        """:meth:`release` several committed demands in one pass.

        One scan of :attr:`committed` however many demands go back, so a
        holder's whole book is returned in linear time.  Each listed demand
        removes one committed occurrence of that object.  All-or-nothing: if
        any is not currently committed, :class:`SpecificationError` is raised
        before anything is refunded.
        """
        pending = Counter(id(demand) for demand in demands)
        with self._lock:
            kept: List[PlacementDemand] = []
            for entry in self.committed:
                if pending[id(entry)]:
                    pending[id(entry)] -= 1
                else:
                    kept.append(entry)
            if any(pending.values()):
                raise SpecificationError(
                    "release() got a demand that is not currently committed")
            self.committed = kept
            for demand in demands:
                for node_id, needed in demand.nodes.items():
                    self.node_remaining[self.view.index_of[node_id]] += needed
                for key, needed in demand.links.items():
                    self._link_remaining[self._link_index[key]] += needed
            self.releases_total += len(demands)

    def snapshot(self) -> _Snapshot:
        """A restorable copy of the ledger's entire mutable state.

        The whole copy — both budget arrays and the committed list — is
        taken under the ledger lock, so a concurrent committer can never
        produce a torn snapshot (budgets from after a commit paired with a
        committed list from before it).
        """
        with self._lock:
            return _Snapshot(
                node_remaining=self.node_remaining.copy(),
                link_remaining=dict(self.link_remaining),
                committed=tuple(self.committed))

    def restore(self, snap: _Snapshot) -> None:
        """Roll the ledger back to a :meth:`snapshot` (budgets and commits)."""
        with self._lock:
            self.node_remaining[:] = snap.node_remaining
            self._link_remaining[:] = [snap.link_remaining[key]
                                       for key in self._link_keys]
            self.committed = list(snap.committed)

    # ------------------------------------------------------------------ #
    # Invariants and reporting
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Assert the ledger's invariant: remaining = capacity − Σ committed.

        Raises :class:`~repro.exceptions.CapacityError` when a budget is
        overdrawn or the remaining arrays disagree with the committed-demand
        ground truth (which would mean a bookkeeping bug, not a bad input).
        """
        with self._lock:
            node_used = np.zeros_like(self.node_capacity)
            link_used = np.zeros(len(self._link_keys), dtype=float)
            for demand in self.committed:
                for node_id, needed in demand.nodes.items():
                    node_used[self.view.index_of[node_id]] += needed
                for key, needed in demand.links.items():
                    link_used[self._link_index[key]] += needed
            slack = np.maximum(_REL_SLACK, _REL_SLACK * self.node_capacity)
            if np.any(node_used > self.node_capacity + slack):
                index = int(np.argmax(node_used - self.node_capacity))
                raise CapacityError(
                    f"node {self.view.node_ids[index]} is overdrawn: "
                    f"{node_used[index]:.6g} ops/s committed against a "
                    f"capacity of {self.node_capacity[index]:.6g}")
            expected = self.node_capacity - node_used
            if not np.allclose(self.node_remaining, expected,
                               rtol=1e-6, atol=1e-6):
                raise CapacityError(
                    "node_remaining disagrees with the committed demands "
                    "(ledger bookkeeping bug)")
            for index, key in enumerate(self._link_keys):
                cap = self.link_capacity[key]
                used = float(link_used[index])
                if used > cap + self._slack(cap):
                    raise CapacityError(
                        f"link {key} is overdrawn: {used:.6g} bits/s "
                        f"committed against a capacity of {cap:.6g}")
                if abs(float(self._link_remaining[index])
                       - (cap - used)) > max(1e-6, 1e-6 * cap):
                    raise CapacityError(
                        f"link_remaining[{key}] disagrees with the committed "
                        "demands (ledger bookkeeping bug)")

    def utilization(self) -> Dict[str, float]:
        """Aggregate utilisation summary (for ``repro place`` and healthz)."""
        with self._lock:
            node_cap = float(self.node_capacity.sum())
            node_used = float((self.node_capacity - self.node_remaining).sum())
            link_cap = float(sum(self.link_capacity.values()))
            link_used = link_cap - float(self._link_remaining.sum())
            node_remaining_min = (float(self.node_remaining.min())
                                  if len(self.node_remaining) else 0.0)
        return {
            "committed": float(len(self.committed)),
            "node_utilization": node_used / node_cap if node_cap else 0.0,
            "link_utilization": link_used / link_cap if link_cap else 0.0,
            "node_remaining_min": node_remaining_min,
        }


def validate_placements(items: Iterable, cluster: ClusterState,
                        ) -> Dict[str, float]:
    """Replay a placement result's admitted mappings against a fresh ledger.

    ``items`` is any iterable of objects carrying ``mapping`` and
    ``demand_fps`` attributes (:class:`repro.placement.PlacementItem`;
    rejected items with ``mapping=None`` are skipped).  A fresh
    :class:`ClusterState` with the same capacities as ``cluster`` is built,
    every admitted mapping's demand is *recomputed from the mapping itself*
    and committed in order — so the check is independent of whatever demands
    the placer recorded — and :class:`~repro.exceptions.CapacityError`
    propagates if any commit fails.  Returns the fresh ledger's utilisation
    summary, so benches can assert on it.
    """
    fresh = ClusterState(cluster.network, cluster.node_capacity,
                         cluster.link_capacity)
    for item in items:
        mapping = getattr(item, "mapping", None)
        if mapping is None:
            continue
        demand_fps = float(getattr(item, "demand_fps", 1.0))
        fresh.commit(fresh.demand_of(mapping, demand_fps=demand_fps))
    fresh.validate()
    return fresh.utilization()
