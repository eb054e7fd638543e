"""Joint flow-based placement — the ``place-flow`` optimizer.

Where packing commits to one request at a time, the flow placer first looks
at the *whole* batch at once.  It builds a min-cost max-flow network over the
cluster's dense view:

.. code-block:: text

    source ──► pipeline P_i ──► stage (i, j) ──► cluster node v ──► sink
           cap: Σ_j d_ij     cap: d_ij        cap: d_ij          cap: node
           cost: 0           cost: 0          cost: delay proxy  remaining

One unit of flow is one op/s of steady-state compute demand; ``d_ij =
demand_fps_i × workload_j`` is stage *j*'s demand.  A stage connects to node
``v`` only inside its **hop-feasibility window** — ``hop(src_i, v) ≤ j`` and
``hop(v, dst_i) ≤ n_i − 1 − j`` — so flow can only land where a real mapping
could place the module.  Arc costs combine the node's per-op compute time
(``1 / (power · 10³)`` ms) with a small hop-distance penalty standing in for
transport delay; node→sink capacities are the ledger's *remaining* budgets,
so the optimum respects cluster contention globally.

The fractional optimum is solved by :class:`MinCostFlow` — successive
shortest paths over a paired-arc residual graph, Dijkstra with Johnson
potentials (pure NumPy + stdlib ``heapq``; **no networkx**) — and then
*rounded*: requests are packed through
:func:`repro.placement.packing.solve_on_residual` in flow order (priority
first, then most-completely-routed, then cheapest), so every admitted mapping
is a real engine-optimal mapping on the residual cluster and the capacity
ledger stays exact.  Requests the flow could not route still get a packing
attempt at the back of the order (the "fall back to packing" path), and the
whole flow-guided plan is compared against plain priority packing on the same
starting ledger — the better batch wins — so ``place-flow`` never admits
fewer requests (or a worse total objective at equal admissions) than
``place-greedy``.
"""

from __future__ import annotations

import heapq
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.mapping import Objective
from ..exceptions import AlgorithmError, SpecificationError
from .base import PlacementItem, PlacementRequest, PlacementResult, RequestLike
from .ledger import ClusterState
from .packing import DEFAULT_MAX_REPAIR_ROUNDS, _ordered_indices, _pack_in_order

__all__ = ["MinCostFlow", "place_flow"]

#: Flow below this is treated as numerical noise and not augmented further.
_FLOW_EPS = 1e-9


class MinCostFlow:
    """Min-cost max-flow on a paired-arc residual graph (float capacities).

    Arcs are added with :meth:`add_edge`, which returns the forward arc's
    index; the reverse (residual) arc is always ``index ^ 1``.  The solver is
    successive shortest paths: repeatedly find the cheapest augmenting
    source→sink path with Dijkstra over *reduced* costs (Johnson potentials
    keep them non-negative even after arcs are reversed) and push the
    bottleneck along it.  All arc costs must be non-negative at build time —
    true here, since they are delays.
    """

    def __init__(self, n_vertices: int) -> None:
        if n_vertices < 2:
            raise SpecificationError("a flow network needs at least 2 vertices")
        self.n = n_vertices
        self.adjacency: List[List[int]] = [[] for _ in range(n_vertices)]
        self.to: List[int] = []
        self.cap: List[float] = []
        self.cost: List[float] = []
        self._original_cap: Dict[int, float] = {}

    def add_edge(self, u: int, v: int, cap: float, cost: float) -> int:
        """Add arc ``u → v``; returns the arc index (reverse is ``index ^ 1``)."""
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise SpecificationError(f"arc {u}→{v} out of range 0..{self.n - 1}")
        if cap < 0 or cost < 0:
            raise SpecificationError(
                "arc capacities and costs must be non-negative")
        index = len(self.to)
        self.to.append(v)
        self.cap.append(float(cap))
        self.cost.append(float(cost))
        self.adjacency[u].append(index)
        self.to.append(u)
        self.cap.append(0.0)
        self.cost.append(-float(cost))
        self.adjacency[v].append(index + 1)
        self._original_cap[index] = float(cap)
        return index

    def flow_on(self, arc: int) -> float:
        """Flow currently pushed through forward arc ``arc``."""
        original = self._original_cap.get(arc)
        if original is None:
            raise SpecificationError(f"{arc} is not a forward arc index")
        return original - self.cap[arc]

    def solve(self, source: int, sink: int,
              max_flow: float = float("inf")) -> Tuple[float, float]:
        """Push up to ``max_flow`` units at minimum cost; returns (flow, cost)."""
        if source == sink:
            raise SpecificationError("source and sink must differ")
        potential = [0.0] * self.n
        total_flow = 0.0
        total_cost = 0.0
        infinity = float("inf")
        while total_flow < max_flow - _FLOW_EPS:
            dist = [infinity] * self.n
            prev_arc = [-1] * self.n
            dist[source] = 0.0
            heap = [(0.0, source)]
            while heap:
                d, u = heapq.heappop(heap)
                if d > dist[u] + _FLOW_EPS:
                    continue
                for arc in self.adjacency[u]:
                    if self.cap[arc] <= _FLOW_EPS:
                        continue
                    v = self.to[arc]
                    reduced = self.cost[arc] + potential[u] - potential[v]
                    if reduced < -1e-6:
                        raise AlgorithmError(
                            "negative reduced cost in min-cost-flow Dijkstra "
                            "(potentials out of sync)")
                    nd = d + max(reduced, 0.0)
                    if nd < dist[v] - _FLOW_EPS:
                        dist[v] = nd
                        prev_arc[v] = arc
                        heapq.heappush(heap, (nd, v))
            if dist[sink] == infinity or prev_arc[sink] == -1:
                break
            for v in range(self.n):
                if dist[v] < infinity:
                    potential[v] += dist[v]
            bottleneck = max_flow - total_flow
            v = sink
            while v != source:
                arc = prev_arc[v]
                bottleneck = min(bottleneck, self.cap[arc])
                v = self.to[arc ^ 1]
            if bottleneck <= _FLOW_EPS:
                break
            v = sink
            while v != source:
                arc = prev_arc[v]
                self.cap[arc] -= bottleneck
                self.cap[arc ^ 1] += bottleneck
                total_cost += bottleneck * self.cost[arc]
                v = self.to[arc ^ 1]
            total_flow += bottleneck
        return total_flow, total_cost


def _build_flow_network(coerced: Sequence[PlacementRequest],
                        cluster: ClusterState
                        ) -> Tuple[MinCostFlow, List[int], List[List[Tuple[int, int]]], List[float]]:
    """Assemble the stage-layer MCMF network over the cluster's dense view.

    Returns ``(mcmf, supply_arcs, stage_node_arcs, supplies)`` where
    ``supply_arcs[i]`` is the S→P_i arc index, ``stage_node_arcs[i]`` lists
    ``(arc, node_index)`` pairs for request *i*'s stage→node arcs, and
    ``supplies[i]`` is request *i*'s total compute demand (ops/s).
    """
    view = cluster.view
    k = view.n_nodes

    endpoint_indices: List[int] = []
    endpoint_pos: Dict[int, int] = {}
    for request in coerced:
        req = request.instance.request
        for node_id in (req.source, req.destination):
            index = view.index_of[node_id]
            if index not in endpoint_pos:
                endpoint_pos[index] = len(endpoint_indices)
                endpoint_indices.append(index)
    hops = view.hop_levels(endpoint_indices) if endpoint_indices else \
        np.zeros((0, k), dtype=np.int64)

    # Vertex layout: 0 = S, 1 = T, 2..2+k-1 = cluster nodes, then one vertex
    # per pipeline and one per (pipeline, stage).
    n_vertices = 2 + k
    pipeline_vertex: List[int] = []
    stage_vertices: List[List[Tuple[int, int]]] = []  # per request: (module, vertex)
    for request in coerced:
        pipeline_vertex.append(n_vertices)
        n_vertices += 1
        workloads = request.instance.pipeline.workloads()
        stages = [(j, 0) for j, w in enumerate(workloads)
                  if w > 0 and request.demand_fps > 0]
        stages = [(j, n_vertices + offset) for offset, (j, _v) in enumerate(stages)]
        stage_vertices.append(stages)
        n_vertices += len(stages)

    mcmf = MinCostFlow(n_vertices)
    node_vertex = lambda index: 2 + index

    per_op_ms = 1.0 / (np.maximum(view.power, 1e-12) * 1e3)
    # A per-hop transport penalty a fraction of the median compute cost keeps
    # the cost scale consistent: flow prefers fast nodes first, nearby ones
    # among equals.
    hop_penalty = 0.1 * float(np.median(per_op_ms))

    # One consistent read of the budgets: against a shared store the live
    # array can move while the flow network is being built.
    node_remaining = cluster.node_remaining_vector()
    for index in range(k):
        remaining = float(node_remaining[index])
        if remaining > 0:
            mcmf.add_edge(node_vertex(index), 1, remaining, 0.0)

    supply_arcs: List[int] = []
    stage_node_arcs: List[List[Tuple[int, int]]] = []
    supplies: List[float] = []
    for i, request in enumerate(coerced):
        pipeline = request.instance.pipeline
        req = request.instance.request
        fps = request.demand_fps
        workloads = pipeline.workloads()
        n_modules = pipeline.n_modules
        hop_src = hops[endpoint_pos[view.index_of[req.source]]]
        hop_dst = hops[endpoint_pos[view.index_of[req.destination]]]
        supply = sum(fps * workloads[j] for j, _v in stage_vertices[i])
        supplies.append(supply)
        if supply <= 0:
            supply_arcs.append(-1)
            stage_node_arcs.append([])
            continue
        supply_arcs.append(mcmf.add_edge(0, pipeline_vertex[i], supply, 0.0))
        arcs_i: List[Tuple[int, int]] = []
        for j, stage_vertex in stage_vertices[i]:
            demand = fps * workloads[j]
            mcmf.add_edge(pipeline_vertex[i], stage_vertex, demand, 0.0)
            for v_index in range(k):
                if node_remaining[v_index] <= 0:
                    continue
                hs, hd = int(hop_src[v_index]), int(hop_dst[v_index])
                if hs < 0 or hd < 0:
                    continue
                if hs > j or hd > n_modules - 1 - j:
                    continue
                cost = per_op_ms[v_index] + hop_penalty * (hs + hd)
                arc = mcmf.add_edge(stage_vertex, node_vertex(v_index),
                                    demand, cost)
                arcs_i.append((arc, v_index))
        stage_node_arcs.append(arcs_i)
    return mcmf, supply_arcs, stage_node_arcs, supplies


def _batch_score(items: Sequence[PlacementItem],
                 objective: Objective) -> Tuple[int, float]:
    """(admitted count, signed objective total) — larger is better for both."""
    admitted = [item for item in items if item.admitted]
    if objective is Objective.MIN_DELAY:
        total = -sum(item.mapping.delay_ms for item in admitted)
    else:
        total = sum(item.mapping.frame_rate_fps for item in admitted)
    return len(admitted), total


def place_flow(requests: Sequence[RequestLike],
               cluster: ClusterState, *,
               objective: Objective = Objective.MIN_DELAY,
               engine: str = "elpc-tensor",
               demand_fps: float = 1.0,
               max_repair_rounds: int = DEFAULT_MAX_REPAIR_ROUNDS,
               **solver_kwargs) -> PlacementResult:
    """Jointly place a batch via min-cost max-flow + rounding.

    See the module docstring for the formulation.  The returned items are in
    input order; ``cluster`` ends in the state of the *winning* plan
    (flow-guided or the packing fallback — ``extras["used_fallback"]`` says
    which, ``extras["flow_routed_fraction"]`` how much of the total demand the
    fractional optimum managed to route).
    """
    coerced = [PlacementRequest.coerce(i, r, demand_fps=demand_fps)
               for i, r in enumerate(requests)]
    start = time.perf_counter()

    routed_fraction = [1.0] * len(coerced)
    unit_cost = [0.0] * len(coerced)
    total_supply = 0.0
    total_routed = 0.0
    if coerced:
        for request in coerced:
            if request.instance.network is not cluster.network:
                raise SpecificationError(
                    "placement request's network is not the cluster's "
                    "network: all requests in a placement batch must share "
                    "one TransportNetwork object")
        mcmf, supply_arcs, stage_node_arcs, supplies = _build_flow_network(
            coerced, cluster)
        total_supply = sum(supplies)
        if total_supply > 0:
            mcmf.solve(0, 1, max_flow=total_supply)
        for i in range(len(coerced)):
            if supply_arcs[i] < 0:
                continue
            routed = mcmf.flow_on(supply_arcs[i])
            total_routed += routed
            routed_fraction[i] = routed / supplies[i] if supplies[i] else 1.0
            if routed > _FLOW_EPS:
                cost_i = sum(mcmf.flow_on(arc) * mcmf.cost[arc]
                             for arc, _v in stage_node_arcs[i])
                unit_cost[i] = cost_i / routed
            else:
                unit_cost[i] = float("inf")

    # Rounding order: priority first (admission policy), then the requests the
    # fractional optimum routed most completely (they are the ones the joint
    # solution says fit), cheapest first among equals, input index as the
    # deterministic tie-break.
    order = sorted(range(len(coerced)),
                   key=lambda i: (-coerced[i].priority, -routed_fraction[i],
                                  unit_cost[i], i))

    before = cluster.snapshot()
    flow_items = _pack_in_order(
        coerced, cluster, order, objective=objective, engine=engine,
        max_repair_rounds=max_repair_rounds, **solver_kwargs)
    after_flow = cluster.snapshot()

    # Safety net: the flow-guided order must never do worse than plain
    # priority packing — re-run packing from the same starting ledger and keep
    # the better batch.
    cluster.restore(before)
    packed_items = _pack_in_order(
        coerced, cluster, _ordered_indices(coerced, "priority"),
        objective=objective, engine=engine,
        max_repair_rounds=max_repair_rounds, **solver_kwargs)
    used_fallback = _batch_score(packed_items, objective) > _batch_score(
        flow_items, objective)
    if used_fallback:
        items = packed_items
    else:
        cluster.restore(after_flow)
        items = flow_items

    return PlacementResult(
        placer="place-flow", objective=objective, engine=engine,
        items=items, cluster=cluster,
        wall_time_s=time.perf_counter() - start,
        extras={
            "used_fallback": used_fallback,
            "flow_routed_fraction": (total_routed / total_supply
                                     if total_supply > 0 else 1.0),
            "rounding_order": order,
        })
