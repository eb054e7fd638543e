"""Feasibility diagnostics for pipeline-mapping problem instances.

The paper (Section 4.3) points out that "there may not exist any feasible
mapping solution in some extreme test cases where the shortest end-to-end path
is longer than the pipeline or the pipeline is longer than the longest
end-to-end path but network nodes are not allowed for reuse".  The functions
here detect, *before* running a solver, what linear-time checks can see —
the second case is the NP-complete longest-path question, so the solvers
report it themselves — and double-check a produced mapping against the
structural constraints of each problem variant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..exceptions import InfeasibleMappingError, SpecificationError
from ..types import Grouping, NodeId
from .network import EndToEndRequest, TransportNetwork
from .pipeline import Pipeline

__all__ = [
    "FeasibilityReport",
    "check_delay_instance",
    "check_framerate_instance",
    "validate_mapping_structure",
    "assert_no_reuse",
]


@dataclass(frozen=True)
class FeasibilityReport:
    """Result of a pre-solve feasibility check.

    Attributes
    ----------
    feasible:
        Whether a structurally feasible mapping can exist.
    reason:
        Human-readable explanation when infeasible (``None`` otherwise).
    hop_distance:
        Minimum number of hops between source and destination (-1 if
        disconnected).
    n_modules:
        Pipeline length for reference.
    """

    feasible: bool
    reason: Optional[str]
    hop_distance: int
    n_modules: int

    def raise_if_infeasible(self, *, source: NodeId = None,
                            destination: NodeId = None) -> None:
        """Raise :class:`InfeasibleMappingError` when the instance is infeasible."""
        if not self.feasible:
            raise InfeasibleMappingError(
                self.reason or "instance is infeasible",
                source=source, destination=destination, n_modules=self.n_modules)


def check_delay_instance(pipeline: Pipeline, network: TransportNetwork,
                         request: EndToEndRequest, *,
                         hops: Optional[int] = None) -> FeasibilityReport:
    """Feasibility of the minimum-delay problem (node reuse allowed).

    With node reuse the only structural requirements are that the source and
    destination exist, are connected, and that the pipeline is long enough to
    span the hop distance between them: a path of ``q`` mapped nodes uses
    ``q - 1`` links and each module group occupies one node, so the pipeline
    must have at least ``hop_distance + 1`` modules (each hop needs at least
    one module group on each side).

    ``hops`` optionally supplies a precomputed source→destination hop
    distance (``-1`` when disconnected); the tensor batch engine passes it so
    one batched BFS replaces a per-instance graph traversal while this
    function stays the single source of the feasibility verdicts.
    """
    request.validate(network)
    n = pipeline.n_modules
    if hops is None:
        hops = network.hop_distance(request.source, request.destination)
    if hops < 0:
        return FeasibilityReport(False,
                                 f"source {request.source} and destination "
                                 f"{request.destination} are disconnected",
                                 hops, n)
    if n < hops + 1:
        return FeasibilityReport(
            False,
            f"the shortest end-to-end path needs {hops + 1} nodes but the "
            f"pipeline only has {n} modules (pipeline shorter than shortest path)",
            hops, n)
    return FeasibilityReport(True, None, hops, n)


def check_framerate_instance(pipeline: Pipeline, network: TransportNetwork,
                             request: EndToEndRequest, *,
                             hops: Optional[int] = None) -> FeasibilityReport:
    """Feasibility of the restricted maximum-frame-rate problem (no node reuse).

    Without reuse the mapping is a *simple* path with exactly ``n`` nodes from
    the source to the destination.  Only linear-time obstructions are
    reported: disconnected endpoints, ``n < hop_distance + 1``, and more
    modules than nodes.  Whether a simple path with exactly ``n`` nodes
    exists is NP-complete (:mod:`repro.core.reduction`), so the solvers
    report that case themselves.  ``hops`` optionally supplies a
    precomputed source→destination hop distance (``-1`` when disconnected),
    as in :func:`check_delay_instance`.
    """
    request.validate(network)
    n = pipeline.n_modules
    if hops is None:
        hops = network.hop_distance(request.source, request.destination)
    if hops < 0:
        return FeasibilityReport(False,
                                 f"source {request.source} and destination "
                                 f"{request.destination} are disconnected",
                                 hops, n)
    if n < hops + 1:
        return FeasibilityReport(
            False,
            f"the shortest end-to-end path needs {hops + 1} nodes but the "
            f"pipeline only has {n} modules",
            hops, n)
    if n > network.n_nodes:
        return FeasibilityReport(
            False,
            f"the pipeline has {n} modules but the network only has "
            f"{network.n_nodes} nodes and node reuse is not allowed",
            hops, n)
    return FeasibilityReport(True, None, hops, n)


def validate_mapping_structure(pipeline: Pipeline, network: TransportNetwork,
                               groups: Grouping, path: Sequence[NodeId],
                               request: Optional[EndToEndRequest] = None) -> None:
    """Raise :class:`SpecificationError` unless ``(groups, path)`` is well formed.

    Checks performed:

    * groups partition modules ``0..n-1`` into contiguous ordered blocks,
    * ``len(groups) == len(path)`` and the path is a walk in the network,
    * when a request is given, the first path node is its source and the last
      is its destination (the paper pins the data source and the end user).
    """
    flat: List[int] = [m for g in groups for m in g]
    if flat != list(range(pipeline.n_modules)):
        raise SpecificationError(
            f"groups must cover modules 0..{pipeline.n_modules - 1} contiguously "
            f"and in order; got {groups}")
    if len(groups) != len(path):
        raise SpecificationError(
            f"{len(groups)} groups mapped onto a path of {len(path)} nodes")
    if not network.is_walk(list(path)):
        raise SpecificationError(f"{list(path)} is not a walk in the network")
    if request is not None:
        if path[0] != request.source:
            raise SpecificationError(
                f"first module group must run on the source node {request.source}, "
                f"mapping starts at {path[0]}")
        if path[-1] != request.destination:
            raise SpecificationError(
                f"last module group must run on the destination node "
                f"{request.destination}, mapping ends at {path[-1]}")


def assert_no_reuse(path: Sequence[NodeId]) -> None:
    """Raise :class:`SpecificationError` if any node appears twice in ``path``.

    Used to validate solutions of the restricted frame-rate problem, in which
    "a node on the selected path P executes exactly one module".
    """
    seen = set()
    for node_id in path:
        if node_id in seen:
            raise SpecificationError(
                f"node {node_id} is reused in path {list(path)} but node reuse "
                "is not allowed in this problem variant")
        seen.add(node_id)
