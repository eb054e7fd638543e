"""Extension: time-varying resources and adaptive re-mapping (paper Section 5).

The paper's conclusions note that a single constant is "not always sufficient
to describe the node computing capability, which highly depends on the type
and availability of system resources and could be time varying in a dynamic
environment".  This module provides a small framework to study that setting:

* :class:`ResourceProfile` — piecewise-constant multipliers on node powers and
  link bandwidths over time (e.g. a node drops to 40 % capacity between
  t = 10 s and t = 30 s because a competing job arrives),
* :meth:`ResourceProfile.scaled_view` — the network's cached
  :class:`~repro.model.network.DenseNetworkView` with the multipliers of a
  given instant applied in place (no network rebuild); views are cached per
  timestamp and invalidated when the profile or the base network mutates,
* :func:`network_at` — materialise a full :class:`TransportNetwork` as it
  looks at a given time (needed when a *solver* must run on the scaled
  network, e.g. at re-optimisation epochs),
* :func:`evaluate_static` / :func:`evaluate_adaptive` — compare a mapping
  computed once at t = 0 against a policy that re-runs a solver every
  ``remap_interval`` to track resource drift, reporting the per-epoch
  end-to-end delay (interactive) of each strategy.  Per-epoch delays are
  evaluated on scaled dense views, so an evaluation sweep no longer rebuilds
  the transport network (nodes, links and adjacency) at every
  epoch — ``network_at`` is only invoked when the adaptive policy actually
  re-optimises.

The adaptive policy is intentionally simple (periodic full re-optimisation);
it is an ablation harness, not a contribution claim.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.elpc_delay import elpc_min_delay
from ..core.mapping import PipelineMapping
from ..exceptions import SpecificationError
from ..model.link import BITS_PER_BYTE, CommunicationLink
from ..model.network import DenseNetworkView, EndToEndRequest, TransportNetwork
from ..model.node import ComputingNode
from ..model.pipeline import Pipeline
from ..types import Grouping, NodeId

__all__ = [
    "ResourceProfile",
    "network_at",
    "delay_at_ms",
    "AdaptiveComparison",
    "evaluate_static",
    "evaluate_adaptive",
    "compare_static_vs_adaptive",
]

#: Cached scaled views per profile are bounded; a sweep rarely visits more
#: distinct timestamps than this, and one entry is only a few matrices.
_SCALED_CACHE_LIMIT = 512


@dataclass
class ResourceProfile:
    """Piecewise-constant time profiles of node-power and link-bandwidth multipliers.

    A multiplier of 1.0 means "as specified in the base network"; 0.5 means
    the resource currently delivers half its nominal capability.  Each change
    is registered with :meth:`set_node_factor` / :meth:`set_link_factor` and
    takes effect from its timestamp until the next registered change for the
    same resource.
    """

    _node_events: Dict[NodeId, List[Tuple[float, float]]] = field(default_factory=dict)
    _link_events: Dict[Tuple[NodeId, NodeId], List[Tuple[float, float]]] = field(
        default_factory=dict)
    # Scaled dense views keyed by (id(base_view), time); the base view object
    # is kept alive inside each entry so its id cannot be recycled.  A profile
    # mutation drops only the entries inside the affected time window; a
    # base-network mutation produces a new base view (and so a new key) via
    # TransportNetwork's own invalidation.
    _scaled_views: Dict[Tuple[int, float], Tuple[DenseNetworkView, DenseNetworkView]] = field(
        default_factory=dict, repr=False, compare=False)

    @staticmethod
    def _key(u: NodeId, v: NodeId) -> Tuple[NodeId, NodeId]:
        return (u, v) if u <= v else (v, u)

    def _invalidate(self, start: float, end: float) -> None:
        """Drop cached scaled views whose timestamp falls in ``[start, end)``.

        A factor change registered at ``start`` only alters the piecewise-
        constant profile up to the next event for the *same* resource; views
        cached for instants outside that window still evaluate to exactly the
        same factors, so they are kept.
        """
        stale = [key for key in self._scaled_views if start <= key[1] < end]
        for key in stale:
            del self._scaled_views[key]

    @staticmethod
    def _next_change(events: List[Tuple[float, float]], time_s: float) -> float:
        """First event time strictly after ``time_s`` (``inf`` if none)."""
        times = [t for t, _f in events]
        idx = bisect.bisect_right(times, time_s)
        return times[idx] if idx < len(times) else float("inf")

    def set_node_factor(self, node_id: NodeId, time_s: float, factor: float) -> None:
        """From ``time_s`` on, node ``node_id`` runs at ``factor`` × nominal power."""
        if factor <= 0:
            raise SpecificationError("node power factor must be positive")
        events = self._node_events.setdefault(node_id, [])
        events.append((float(time_s), float(factor)))
        events.sort()
        self._invalidate(float(time_s), self._next_change(events, float(time_s)))

    def set_link_factor(self, u: NodeId, v: NodeId, time_s: float, factor: float) -> None:
        """From ``time_s`` on, link ``u``–``v`` delivers ``factor`` × nominal bandwidth."""
        if factor <= 0:
            raise SpecificationError("link bandwidth factor must be positive")
        events = self._link_events.setdefault(self._key(u, v), [])
        events.append((float(time_s), float(factor)))
        events.sort()
        self._invalidate(float(time_s), self._next_change(events, float(time_s)))

    @staticmethod
    def _factor_at(events: List[Tuple[float, float]], time_s: float) -> float:
        if not events:
            return 1.0
        times = [t for t, _f in events]
        idx = bisect.bisect_right(times, time_s) - 1
        return events[idx][1] if idx >= 0 else 1.0

    def node_factor(self, node_id: NodeId, time_s: float) -> float:
        """Multiplier applied to the node's power at ``time_s``."""
        return self._factor_at(self._node_events.get(node_id, []), time_s)

    def link_factor(self, u: NodeId, v: NodeId, time_s: float) -> float:
        """Multiplier applied to the link's bandwidth at ``time_s``."""
        return self._factor_at(self._link_events.get(self._key(u, v), []), time_s)

    def change_times(self) -> List[float]:
        """All distinct timestamps at which some resource changes."""
        times = {t for events in self._node_events.values() for t, _ in events}
        times |= {t for events in self._link_events.values() for t, _ in events}
        return sorted(times)

    def scaled_view(self, base: TransportNetwork, time_s: float) -> DenseNetworkView:
        """Dense view of ``base`` with this profile's factors applied at ``time_s``.

        The in-place counterpart of :func:`network_at`: instead of rebuilding
        nodes, links and adjacency per epoch, the base network's
        cached dense view is re-scaled — the power vector by the node factors,
        the bandwidth matrix (and its bits/s twin) by the link factors — and
        packaged as a fresh read-only :class:`DenseNetworkView`.  The scaled
        powers and bandwidths are bit-identical to those of
        ``network_at(base, profile, time_s).dense_view()``: both compute
        ``nominal × factor`` once per resource.

        Views are cached per timestamp.  The cache is invalidated by
        :meth:`set_node_factor` / :meth:`set_link_factor` (profile mutation)
        and keys on the base network's *current* dense-view object, so a base
        mutation (which makes ``base.dense_view()`` rebuild) also misses —
        a stale view can never be returned.
        """
        base_view = base.dense_view()
        key = (id(base_view), float(time_s))
        cached = self._scaled_views.get(key)
        if cached is not None and cached[0] is base_view:
            return cached[1]
        node_factors = np.array([self.node_factor(nid, time_s)
                                 for nid in base_view.node_ids])
        power = base_view.power * node_factors
        bandwidth = np.array(base_view.bandwidth)
        index = base_view.index_of
        for (u, v), events in self._link_events.items():
            if u not in index or v not in index:
                continue
            factor = self._factor_at(events, time_s)
            i, j = index[u], index[v]
            bandwidth[i, j] *= factor
            bandwidth[j, i] *= factor
        view = DenseNetworkView.build(base_view.node_ids, power,
                                      base_view.adjacency, bandwidth,
                                      base_view.link_delay)
        if len(self._scaled_views) >= _SCALED_CACHE_LIMIT:
            self._scaled_views.clear()
        self._scaled_views[key] = (base_view, view)
        return view


def network_at(base: TransportNetwork, profile: ResourceProfile,
               time_s: float) -> TransportNetwork:
    """The network as it effectively looks at ``time_s`` under ``profile``.

    Builds a full :class:`TransportNetwork`, which a *solver* needs (the
    adaptive policy re-optimises on it).  For per-epoch cost evaluation use
    :meth:`ResourceProfile.scaled_view` / :func:`delay_at_ms`, which skip the
    rebuild.
    """
    nodes = [ComputingNode(node_id=n.node_id,
                           processing_power=n.processing_power
                           * profile.node_factor(n.node_id, time_s),
                           ip_address=n.ip_address, name=n.name)
             for n in base.nodes()]
    links = [CommunicationLink(start_node=l.start_node, end_node=l.end_node,
                               bandwidth_mbps=l.bandwidth_mbps
                               * profile.link_factor(l.start_node, l.end_node, time_s),
                               min_delay_ms=l.min_delay_ms, link_id=l.link_id)
             for l in base.links()]
    return TransportNetwork(nodes=nodes, links=links, name=base.name)


def _delay_from_view(pipeline: Pipeline, view: DenseNetworkView,
                     groups: Grouping, path: Sequence[NodeId]) -> float:
    """Eq. 1 end-to-end delay of a mapping evaluated on a dense view.

    Mirrors :func:`repro.model.cost.end_to_end_delay_ms` operation for
    operation (group computing terms first, then the link transfer terms
    ``(m·8/b)·10³ + d``), so the per-epoch delays of the evaluation sweeps are
    bit-identical to the network-rebuild formulation they replace.  Structure
    validation is skipped: mappings are validated at construction and the
    scaled view shares the base topology.
    """
    index = view.index_of
    total = 0.0
    for group, node_id in zip(groups, path):
        total += (pipeline.group_workload(group)
                  / (view.power[index[node_id]] * 1e3))
    for i in range(len(path) - 1):
        u, v = path[i], path[i + 1]
        if u == v:
            continue
        iu, iv = index[u], index[v]
        message = pipeline.group_output_bytes(groups[i])
        seconds = message * BITS_PER_BYTE / view.bandwidth_bits_per_s[iu, iv]
        total += seconds * 1e3 + view.link_delay[iu, iv]
    return float(total)


def delay_at_ms(pipeline: Pipeline, base: TransportNetwork,
                profile: ResourceProfile, time_s: float,
                mapping: PipelineMapping) -> float:
    """End-to-end delay of ``mapping`` at ``time_s`` under ``profile``.

    Convenience front of the scaled-dense-view evaluation path: equivalent to
    ``end_to_end_delay_ms(pipeline, network_at(base, profile, time_s),
    mapping.groups, mapping.path)`` without rebuilding the network.
    """
    view = profile.scaled_view(base, time_s)
    return _delay_from_view(pipeline, view, mapping.groups, mapping.path)


@dataclass(frozen=True)
class AdaptiveComparison:
    """Per-epoch delays of the static and adaptive strategies.

    ``epochs`` holds the evaluation timestamps; ``static_delay_ms[i]`` and
    ``adaptive_delay_ms[i]`` are the end-to-end delays a request issued at
    ``epochs[i]`` would experience under each strategy.
    """

    epochs: Tuple[float, ...]
    static_delay_ms: Tuple[float, ...]
    adaptive_delay_ms: Tuple[float, ...]
    remap_count: int

    @property
    def mean_static_ms(self) -> float:
        """Average delay of the never-remapped strategy."""
        return sum(self.static_delay_ms) / len(self.static_delay_ms)

    @property
    def mean_adaptive_ms(self) -> float:
        """Average delay of the periodically re-optimised strategy."""
        return sum(self.adaptive_delay_ms) / len(self.adaptive_delay_ms)

    @property
    def improvement_ratio(self) -> float:
        """Static mean delay divided by adaptive mean delay (>1 ⇒ adaptation pays off)."""
        return self.mean_static_ms / self.mean_adaptive_ms if self.mean_adaptive_ms else 1.0


def evaluate_static(pipeline: Pipeline, base: TransportNetwork,
                    request: EndToEndRequest, profile: ResourceProfile,
                    epochs: Sequence[float], *,
                    solver: Callable[..., PipelineMapping] = elpc_min_delay) -> List[float]:
    """Delay at every epoch of a mapping computed once on the nominal network."""
    mapping = solver(pipeline, base, request)
    return [_delay_from_view(pipeline, profile.scaled_view(base, t),
                             mapping.groups, mapping.path)
            for t in epochs]


def evaluate_adaptive(pipeline: Pipeline, base: TransportNetwork,
                      request: EndToEndRequest, profile: ResourceProfile,
                      epochs: Sequence[float], *, remap_interval: float,
                      solver: Callable[..., PipelineMapping] = elpc_min_delay
                      ) -> Tuple[List[float], int]:
    """Delay at every epoch under periodic re-optimisation.

    The mapping is recomputed on the *current* network whenever
    ``remap_interval`` seconds have elapsed since the previous optimisation;
    between re-optimisations the most recent mapping is used.  Returns the
    per-epoch delays and the number of re-optimisations performed (excluding
    the initial one).
    """
    if remap_interval <= 0:
        raise SpecificationError("remap_interval must be positive")
    delays: List[float] = []
    mapping: Optional[PipelineMapping] = None
    last_remap = -float("inf")
    remaps = -1  # the first solve is not counted as a re-map
    for t in epochs:
        if mapping is None or t - last_remap >= remap_interval:
            # Solvers need a real network, so the rebuild is paid only at
            # re-optimisation epochs; evaluation uses the scaled view.
            current = network_at(base, profile, t)
            mapping = solver(pipeline, current, request)
            last_remap = t
            remaps += 1
        delays.append(_delay_from_view(pipeline, profile.scaled_view(base, t),
                                       mapping.groups, mapping.path))
    return delays, max(remaps, 0)


def compare_static_vs_adaptive(pipeline: Pipeline, base: TransportNetwork,
                               request: EndToEndRequest, profile: ResourceProfile,
                               *, horizon_s: float = 60.0, step_s: float = 5.0,
                               remap_interval: float = 10.0,
                               solver: Callable[..., PipelineMapping] = elpc_min_delay
                               ) -> AdaptiveComparison:
    """Run both strategies over a time horizon and package the comparison."""
    if horizon_s <= 0 or step_s <= 0:
        raise SpecificationError("horizon_s and step_s must be positive")
    epochs = [round(t * step_s, 9) for t in range(int(horizon_s / step_s) + 1)]
    static = evaluate_static(pipeline, base, request, profile, epochs, solver=solver)
    adaptive, remaps = evaluate_adaptive(pipeline, base, request, profile, epochs,
                                         remap_interval=remap_interval, solver=solver)
    return AdaptiveComparison(epochs=tuple(epochs),
                              static_delay_ms=tuple(static),
                              adaptive_delay_ms=tuple(adaptive),
                              remap_count=remaps)
