"""Capacity-aware sequential packing — the ``place-greedy`` baseline.

The packing placer reuses the per-pipeline engines unchanged: each request is
solved through :func:`repro.core.registry.get_solver` against the *residual*
cluster.  :func:`solve_on_residual` is the per-request primitive that both
placers share:

1. **Prefilter** — non-endpoint nodes whose remaining compute budget cannot
   host even the lightest inner module, and links whose remaining bandwidth
   cannot carry even the smallest inter-group message, are removed up front
   (they could never appear in a feasible placement at this demand).
2. **Solve** — the engine runs on the reduced network (or on the original
   network object when nothing is filtered, so the uncontended limit returns
   the engine's exact result and reuses the cached dense view).
3. **Repair** — the candidate mapping's demand is checked against the ledger.
   Violated non-endpoint nodes and violated links are excluded and the engine
   re-runs, a bounded number of times.  A violation at the pinned source or
   destination node is terminal: no mapping can avoid an endpoint, so the
   request is rejected with :class:`~repro.exceptions.CapacityError`.

Because the engine itself is delay/rate-optimal on whatever network it is
given, packing degrades gracefully: contention only ever *shrinks* the
network a request gets to use, never distorts the cost model.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.mapping import Objective, PipelineMapping
from ..core.registry import get_solver
from ..exceptions import CapacityError, InfeasibleMappingError, SpecificationError
from ..model.link import BITS_PER_BYTE
from ..model.network import TransportNetwork
from ..types import NodeId
from .base import PlacementItem, PlacementRequest, PlacementResult, RequestLike
from .ledger import ClusterState, PlacementDemand, _link_key

__all__ = ["solve_on_residual", "place_greedy"]

#: How many exclude-and-re-solve rounds :func:`solve_on_residual` will spend
#: on one request before giving up with :class:`CapacityError`.
DEFAULT_MAX_REPAIR_ROUNDS = 4


def _reduced_network(network: TransportNetwork,
                     excluded_nodes: Set[NodeId],
                     excluded_links: Set[Tuple[NodeId, NodeId]]
                     ) -> TransportNetwork:
    """A copy of ``network`` without the excluded nodes and undirected links."""
    nodes = [n for n in network.nodes() if n.node_id not in excluded_nodes]
    links = [l for l in network.links()
             if l.start_node not in excluded_nodes
             and l.end_node not in excluded_nodes
             and _link_key(l.start_node, l.end_node) not in excluded_links]
    return TransportNetwork(nodes=nodes, links=links,
                            name=f"{network.name or 'network'}-residual")


def _prefilter(request: PlacementRequest, cluster: ClusterState
               ) -> Tuple[Set[NodeId], Set[Tuple[NodeId, NodeId]]]:
    """Nodes/links that cannot possibly serve this request at its demand.

    A non-endpoint node on any feasible path hosts at least one inner module,
    so it needs at least ``demand_fps * min(inner workloads)`` ops/s; a used
    link carries at least the smallest inter-group message, so it needs at
    least ``demand_fps * 8 * min(positive output bytes)`` bits/s.  Both bounds
    are conservative (real groups are supersets), so the filter never removes
    a node or link a feasible placement could have used.
    """
    pipeline = request.instance.pipeline
    req = request.instance.request
    fps = request.demand_fps
    excluded_nodes: Set[NodeId] = set()
    excluded_links: Set[Tuple[NodeId, NodeId]] = set()
    if fps <= 0:
        return excluded_nodes, excluded_links

    inner = pipeline.workloads()[1:]
    min_inner = min((w for w in inner if w > 0), default=0.0)
    if min_inner > 0:
        min_node_need = fps * min_inner
        for node_id, remaining, slack in cluster.node_budgets():
            if node_id in (req.source, req.destination):
                continue
            if remaining + slack < min_node_need:
                excluded_nodes.add(node_id)

    messages = [pipeline.message_size(j)
                for j in range(pipeline.n_modules - 1)]
    min_bytes = min((b for b in messages if b > 0), default=0.0)
    if min_bytes > 0:
        min_link_need = fps * min_bytes * BITS_PER_BYTE
        for key, remaining, slack in cluster.link_budgets():
            if remaining + slack < min_link_need:
                excluded_links.add(key)
    return excluded_nodes, excluded_links


def solve_on_residual(request: PlacementRequest, cluster: ClusterState, *,
                      objective: Objective = Objective.MIN_DELAY,
                      engine: str = "elpc-tensor",
                      max_repair_rounds: int = DEFAULT_MAX_REPAIR_ROUNDS,
                      excluded_nodes: Optional[Set[NodeId]] = None,
                      excluded_links: Optional[Set[Tuple[NodeId, NodeId]]] = None,
                      **solver_kwargs
                      ) -> Tuple[PipelineMapping, PlacementDemand, int]:
    """Solve one request against the residual cluster (without committing).

    Returns ``(mapping, demand, attempts)`` where the mapping's demand is
    guaranteed to fit the ledger *right now*; the caller decides whether to
    :meth:`~repro.placement.ClusterState.commit` it.  Raises
    :class:`~repro.exceptions.CapacityError` when no capacity-feasible mapping
    exists (endpoint budget exhausted, or the repair budget ran out) and
    propagates :class:`~repro.exceptions.InfeasibleMappingError` when the
    residual network has no feasible mapping at all.  Extra ``excluded_nodes``
    / ``excluded_links`` seed the exclusion sets (the flow placer uses this to
    steer the engine toward its flow assignment).
    """
    instance = request.instance
    if instance.network is not cluster.network:
        raise SpecificationError(
            "placement request's network is not the cluster's network: all "
            "requests in a placement batch must share one TransportNetwork "
            "object")
    req = instance.request
    for label, node_id in (("source", req.source),
                           ("destination", req.destination)):
        # An endpoint with a fully drained compute budget can never host its
        # pinned module; fail fast with the real reason instead of a generic
        # infeasibility from a network missing the endpoint.
        if (cluster.remaining_node(node_id) + cluster.node_slack(node_id) <= 0
                and request.demand_fps > 0):
            workloads = instance.pipeline.workloads()
            pinned = workloads[0] if label == "source" else workloads[-1]
            if pinned > 0:
                raise CapacityError(
                    f"{label} node {node_id} has no remaining compute "
                    "capacity")

    bad_nodes, bad_links = _prefilter(request, cluster)
    if excluded_nodes:
        bad_nodes |= {n for n in excluded_nodes
                      if n not in (req.source, req.destination)}
    if excluded_links:
        bad_links |= {_link_key(*key) for key in excluded_links}

    solver = get_solver(engine, objective)
    attempts = 0
    while True:
        attempts += 1
        if bad_nodes or bad_links:
            network = _reduced_network(cluster.network, bad_nodes, bad_links)
            if not (network.has_node(req.source)
                    and network.has_node(req.destination)):
                raise CapacityError(
                    "residual cluster no longer contains the request's "
                    "endpoints")
        else:
            network = cluster.network
        candidate = solver(instance.pipeline, network, req, **solver_kwargs)
        if network is not cluster.network:
            # Re-anchor the mapping on the original network so ledger lookups,
            # result reporting and downstream consumers all see one network.
            candidate = PipelineMapping(
                pipeline=candidate.pipeline, network=cluster.network,
                groups=candidate.groups, path=candidate.path,
                objective=candidate.objective, algorithm=candidate.algorithm,
                runtime_s=candidate.runtime_s,
                allow_reuse=candidate.allow_reuse, extras=candidate.extras)
        demand = cluster.demand_of(candidate, demand_fps=request.demand_fps)
        violations = cluster.violations(demand)
        if not violations:
            return candidate, demand, attempts
        if attempts > max_repair_rounds:
            raise CapacityError(
                f"no capacity-feasible mapping after {attempts} attempts: "
                + "; ".join(v.describe() for v in violations))
        for violation in violations:
            if violation.kind == "node":
                if violation.where in (req.source, req.destination):
                    raise CapacityError(
                        f"endpoint budget exhausted — {violation.describe()}")
                bad_nodes.add(violation.where)
            else:
                bad_links.add(violation.where)


def _ordered_indices(requests: Sequence[PlacementRequest],
                     order: str) -> List[int]:
    if order == "input":
        return list(range(len(requests)))
    if order == "priority":
        return sorted(range(len(requests)),
                      key=lambda i: (-requests[i].priority, i))
    raise SpecificationError(
        f"unknown packing order {order!r}; expected 'priority' or 'input'")


def _pack_in_order(coerced: Sequence[PlacementRequest],
                   cluster: ClusterState,
                   indices: Sequence[int], *,
                   objective: Objective,
                   engine: str,
                   max_repair_rounds: int = DEFAULT_MAX_REPAIR_ROUNDS,
                   **solver_kwargs) -> List[PlacementItem]:
    """Solve-and-commit each request in the given order; items in input order.

    The shared packing loop: ``place_greedy`` drives it with a priority
    order, ``place_flow`` with its flow-derived rounding order.  Failures
    are recorded per item, never raised; ``cluster`` is mutated.
    """
    items: List[Optional[PlacementItem]] = [None] * len(coerced)
    for i in indices:
        request = coerced[i]
        name = request.instance.name
        t0 = time.perf_counter()
        try:
            mapping, demand, attempts = solve_on_residual(
                request, cluster, objective=objective, engine=engine,
                max_repair_rounds=max_repair_rounds, **solver_kwargs)
            cluster.commit(demand)
            items[i] = PlacementItem(
                index=i, name=name, mapping=mapping, demand=demand,
                priority=request.priority, demand_fps=request.demand_fps,
                runtime_s=time.perf_counter() - t0, attempts=attempts)
        except (CapacityError, InfeasibleMappingError) as exc:
            items[i] = PlacementItem(
                index=i, name=name, error=exc, priority=request.priority,
                demand_fps=request.demand_fps,
                runtime_s=time.perf_counter() - t0)
    return [item for item in items if item is not None]


def place_greedy(requests: Sequence[RequestLike],
                 cluster: ClusterState, *,
                 objective: Objective = Objective.MIN_DELAY,
                 engine: str = "elpc-tensor",
                 order: str = "priority",
                 demand_fps: float = 1.0,
                 max_repair_rounds: int = DEFAULT_MAX_REPAIR_ROUNDS,
                 **solver_kwargs) -> PlacementResult:
    """Sequential capacity-aware packing of a batch onto ``cluster``.

    Requests are solved one at a time in ``order`` (``"priority"`` — higher
    priority first, input position breaking ties — or ``"input"``), each
    against the residual cluster left by its predecessors, and committed on
    success.  Failures (capacity or infeasibility) are recorded per item,
    never raised.  Items come back in input order; ``cluster`` is mutated —
    snapshot it first if you need to roll back.
    """
    coerced = [PlacementRequest.coerce(i, r, demand_fps=demand_fps)
               for i, r in enumerate(requests)]
    start = time.perf_counter()
    items = _pack_in_order(
        coerced, cluster, _ordered_indices(coerced, order),
        objective=objective, engine=engine,
        max_repair_rounds=max_repair_rounds, **solver_kwargs)
    return PlacementResult(
        placer="place-greedy", objective=objective, engine=engine,
        items=items, cluster=cluster,
        wall_time_s=time.perf_counter() - start,
        extras={"order": order})
