"""NP-completeness machinery: the Hamiltonian-Path → ENSP reduction
(paper Section 3.1.2, Theorem "ENSP is NP-complete").

The paper shows that the restricted maximum-frame-rate mapping problem reduces
to the *exact n-hop widest path* problem, whose complexity matches the *exact
n-hop shortest path* problem (ENSP), and proves ENSP NP-complete by reducing
Hamiltonian Path (HP) to it:

    given an HP instance — a graph :math:`G` with :math:`n+1` vertices
    :math:`v_0..v_n` and the question "is there a simple path from
    :math:`v_0` to :math:`v_n` visiting every vertex exactly once?" — build
    the ENSP instance :math:`G' = G` with all edge weights set to 1 and bound
    :math:`B = n`; then HP has a solution iff :math:`G'` has a simple
    :math:`n`-hop path from :math:`v_0'` to :math:`v_n'` of total distance
    :math:`\\le B`.

This module implements the transformation, a certificate verifier (showing
ENSP ∈ NP), and a small exact ENSP solver so the reduction can be exercised
end-to-end in tests: solving the produced ENSP instance answers the original
Hamiltonian-Path question.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

from ..exceptions import SpecificationError

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "ENSPInstance",
    "hamiltonian_path_to_ensp",
    "verify_ensp_certificate",
    "solve_ensp_exact",
    "has_hamiltonian_path",
]


@dataclass(frozen=True)
class ENSPInstance:
    """An exact-n-hop shortest path (ENSP) decision instance.

    Attributes
    ----------
    graph:
        Undirected graph with numeric ``weight`` attributes on every edge.
    source, destination:
        Path endpoints.
    hops:
        The exact number of hops (edges) the path must have.
    bound:
        The decision bound: "does a simple path with exactly ``hops`` hops and
        total weight ≤ ``bound`` exist?".
    """

    graph: nx.Graph
    source: int
    destination: int
    hops: int
    bound: float


def hamiltonian_path_to_ensp(graph: nx.Graph, source: int,
                             destination: int) -> ENSPInstance:
    """Polynomial-time transformation of a Hamiltonian-Path instance into ENSP.

    Copies the topology, sets every edge weight to 1, asks for exactly
    :math:`n` hops (where the graph has :math:`n+1` vertices) and bound
    :math:`B = n` — exactly the construction in the paper's proof.
    """
    import networkx as nx

    if source not in graph or destination not in graph:
        raise SpecificationError("source/destination must be vertices of the graph")
    if source == destination:
        raise SpecificationError(
            "the Hamiltonian-Path reduction needs distinct endpoints")
    n_hops = graph.number_of_nodes() - 1
    g2 = nx.Graph()
    g2.add_nodes_from(graph.nodes())
    for u, v in graph.edges():
        g2.add_edge(u, v, weight=1.0)
    return ENSPInstance(graph=g2, source=source, destination=destination,
                        hops=n_hops, bound=float(n_hops))


def verify_ensp_certificate(instance: ENSPInstance, path: Sequence[int]) -> bool:
    """Polynomial-time certificate check (ENSP ∈ NP).

    A certificate is a node sequence; it is accepted iff it is a *simple*
    path in the instance graph from the source to the destination with exactly
    ``instance.hops`` hops and total weight ≤ ``instance.bound``.
    """
    if len(path) != instance.hops + 1:
        return False
    if path[0] != instance.source or path[-1] != instance.destination:
        return False
    if len(set(path)) != len(path):
        return False
    total = 0.0
    for u, v in zip(path, path[1:]):
        if not instance.graph.has_edge(u, v):
            return False
        total += float(instance.graph[u][v].get("weight", 1.0))
    return total <= instance.bound + 1e-12


def solve_ensp_exact(instance: ENSPInstance) -> Optional[List[int]]:
    """Exhaustively solve an ENSP instance (exponential time, small graphs only).

    Returns a witness path if one exists, else ``None``.  Uses a depth-first
    search with hop-count pruning against the destination's shortest-path
    distances.
    """
    import networkx as nx

    graph = instance.graph
    try:
        dist_to_dest = nx.single_source_shortest_path_length(graph, instance.destination)
    except nx.NodeNotFound:  # pragma: no cover - defensive
        return None

    target_len = instance.hops + 1

    def extend(path: List[int], used: set, weight: float) -> Optional[List[int]]:
        last = path[-1]
        remaining = target_len - len(path)
        if remaining == 0:
            if last == instance.destination and weight <= instance.bound + 1e-12:
                return list(path)
            return None
        d = dist_to_dest.get(last)
        if d is None or d > remaining:
            return None
        for nxt in graph.neighbors(last):
            if nxt in used:
                continue
            w = float(graph[last][nxt].get("weight", 1.0))
            if weight + w > instance.bound + 1e-12:
                continue  # non-negative weights: over budget already, prune
            path.append(nxt)
            used.add(nxt)
            found = extend(path, used, weight + w)
            used.remove(nxt)
            path.pop()
            if found is not None:
                return found
        return None

    return extend([instance.source], {instance.source}, 0.0)


def has_hamiltonian_path(graph: nx.Graph, source: int, destination: int) -> bool:
    """Decide Hamiltonian Path between two endpoints *via the ENSP reduction*.

    This is intentionally routed through :func:`hamiltonian_path_to_ensp` and
    :func:`solve_ensp_exact` so the tests can confirm the reduction preserves
    yes/no answers in both directions (the two implications of the paper's
    proof).  Exponential; small graphs only.
    """
    instance = hamiltonian_path_to_ensp(graph, source, destination)
    witness = solve_ensp_exact(instance)
    if witness is None:
        return False
    if not verify_ensp_certificate(instance, witness):  # pragma: no cover - invariant
        raise SpecificationError("ENSP solver returned an invalid certificate")
    return True
