"""Naive reference mappers.

These are not from the paper; they exist as easily-understood reference points
for the benchmarks and examples:

* :func:`source_only_min_delay` — run every computing module on the source
  node and ship the final result to the destination; the "don't distribute at
  all" strategy that motivates the whole problem (a standalone workstation
  plus a last-hop transfer).
* :func:`direct_path_min_delay` — spread the modules evenly along one
  shortest-hop source→destination path, ignoring node power and link
  bandwidth; the "distribute blindly" strategy.
* :func:`direct_path_max_frame_rate` — place one module per node along the
  first simple path with exactly ``n`` nodes found by depth-first search,
  ignoring all costs.
"""

from __future__ import annotations

import time
from typing import List, Optional

from ..core.exact import enumerate_exact_hop_paths
from ..core.mapping import Objective, PipelineMapping, mapping_from_assignment
from ..exceptions import InfeasibleMappingError
from ..model.network import EndToEndRequest, TransportNetwork
from ..model.pipeline import Pipeline
from ..model.validation import check_delay_instance, check_framerate_instance
from ..types import NodeId

__all__ = [
    "source_only_min_delay",
    "direct_path_min_delay",
    "direct_path_max_frame_rate",
]


def _shortest_hop_path(network: TransportNetwork, source: NodeId,
                       destination: NodeId) -> List[NodeId]:
    import networkx as nx

    try:
        return list(nx.shortest_path(network.graph, source, destination))
    except nx.NetworkXNoPath:
        raise InfeasibleMappingError(
            f"nodes {source} and {destination} are disconnected",
            source=source, destination=destination) from None


def source_only_min_delay(pipeline: Pipeline, network: TransportNetwork,
                          request: EndToEndRequest, *,
                          include_link_delay: bool = True) -> PipelineMapping:
    """Run all computation on the source node, then ship the result to the destination.

    Modules ``0..n-2`` execute on the source; the terminal module runs on the
    destination, with the last message routed along a shortest-hop path.  When
    the source and destination are not adjacent, the intermediate relay nodes
    each receive one trailing module so the walk stays structurally valid; the
    instance must therefore have at least ``hop_distance + 1`` modules (the
    same condition as every other solver).
    """
    start = time.perf_counter()
    check_delay_instance(pipeline, network, request).raise_if_infeasible(
        source=request.source, destination=request.destination)
    n = pipeline.n_modules
    route = _shortest_hop_path(network, request.source, request.destination)
    hops = len(route) - 1
    if n < hops + 1:
        raise InfeasibleMappingError(
            "pipeline shorter than the shortest source→destination path",
            source=request.source, destination=request.destination, n_modules=n)
    # modules 0 .. n-1-hops on the source, then one module per remaining route node
    assignment: List[NodeId] = [request.source] * (n - hops)
    assignment.extend(route[1:])
    runtime = time.perf_counter() - start
    return mapping_from_assignment(
        pipeline, network, assignment,
        objective=Objective.MIN_DELAY, algorithm="source-only",
        runtime_s=runtime, allow_reuse=True)


def direct_path_min_delay(pipeline: Pipeline, network: TransportNetwork,
                          request: EndToEndRequest, *,
                          include_link_delay: bool = True) -> PipelineMapping:
    """Spread modules as evenly as possible along one shortest-hop path.

    Ignores node power and link bandwidth entirely; serves as the
    "distribute blindly" reference in the benchmark plots.
    """
    start = time.perf_counter()
    check_delay_instance(pipeline, network, request).raise_if_infeasible(
        source=request.source, destination=request.destination)
    n = pipeline.n_modules
    route = _shortest_hop_path(network, request.source, request.destination)
    q = len(route)
    if n < q:
        raise InfeasibleMappingError(
            "pipeline shorter than the shortest source→destination path",
            source=request.source, destination=request.destination, n_modules=n)
    # distribute n modules over q route nodes as evenly as possible, in order
    base, extra = divmod(n, q)
    assignment: List[NodeId] = []
    for idx, node_id in enumerate(route):
        count = base + (1 if idx < extra else 0)
        assignment.extend([node_id] * count)
    runtime = time.perf_counter() - start
    return mapping_from_assignment(
        pipeline, network, assignment,
        objective=Objective.MIN_DELAY, algorithm="direct-path",
        runtime_s=runtime, allow_reuse=True)


def direct_path_max_frame_rate(pipeline: Pipeline, network: TransportNetwork,
                               request: EndToEndRequest, *,
                               include_link_delay: bool = True) -> PipelineMapping:
    """One module per node along the first exact-``n``-node simple path found.

    A cost-oblivious streaming baseline: it proves feasibility (or the lack of
    it) but makes no attempt to avoid slow nodes or thin links.
    """
    start = time.perf_counter()
    check_framerate_instance(pipeline, network, request).raise_if_infeasible(
        source=request.source, destination=request.destination)
    n = pipeline.n_modules
    path: Optional[List[NodeId]] = None
    for candidate in enumerate_exact_hop_paths(network, request.source,
                                               request.destination, n):
        path = candidate
        break
    if path is None:
        raise InfeasibleMappingError(
            f"no simple path with exactly {n} nodes exists",
            source=request.source, destination=request.destination, n_modules=n)
    runtime = time.perf_counter() - start
    return mapping_from_assignment(
        pipeline, network, path,
        objective=Objective.MAX_FRAME_RATE, algorithm="direct-path",
        runtime_s=runtime, allow_reuse=False)
