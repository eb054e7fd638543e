"""Multi-tenant joint placement: many pipelines on one capacity-limited cluster.

Every solver in :mod:`repro.core` places *one* pipeline against an
uncontended network, so B pipelines solved independently can all pick the
same "best" node.  This package adds the missing notion of **contention**: a
batch of pipelines is placed jointly on a shared cluster whose nodes have a
finite compute budget (ops/s) and whose links have a finite bandwidth budget
(bits/s).  A placement is *admitted* only if the cluster can actually sustain
its steady-state load; otherwise the request is rejected with a recorded
reason — never a silent oversubscription.

Building blocks
---------------
* :class:`ClusterState` (:mod:`repro.placement.ledger`) — the capacity
  ledger layered over :meth:`repro.TransportNetwork.dense_view`: per-node /
  per-link remaining capacity arrays, atomic ``commit`` / ``release``,
  ``snapshot`` / ``restore`` for rollback, and the invariant validator.
* :func:`place_greedy` (:mod:`repro.placement.packing`) — the capacity-aware
  **sequential packing** baseline: pipelines are solved one at a time through
  the ordinary solver registry against the *residual* cluster (capacity-
  exhausted nodes and links are masked out, violations trigger a bounded
  repair loop), in a configurable priority order.
* :func:`place_flow` (:mod:`repro.placement.flow`) — the **joint flow-based
  optimizer**: a min-cost max-flow network built over the dense CSR view
  (source → pipeline stages → nodes → sink; capacities from the ledger,
  costs from the delay model) is solved with pure-NumPy/stdlib successive
  shortest paths (no networkx), and the flow is rounded into per-pipeline
  mappings — unroutable remainders fall back to the packing path.
* :func:`validate_placements` — the batch-level validator: recomputes every
  admitted mapping's demand on a fresh ledger and asserts that no committed
  placement ever exceeds any node or link capacity.
* The placer registry (:func:`register_placer` / :func:`get_placer` /
  :func:`available_placers`) mirrors the solver registry so placement
  strategies are addressable by name from :func:`repro.place_many`, the
  ``repro place`` CLI and the service admission hook.

In the uncontended limit (capacities ≥ total demand) both placers reproduce
per-pipeline :func:`repro.solve_many` results exactly — the differential
tests in ``tests/test_placement_differential.py`` pin this the same way the
engines are pinned against each other.
"""

from .base import PlacementItem, PlacementRequest, PlacementResult
from .flow import MinCostFlow, place_flow
from .ledger import (
    CapacityViolation,
    ClusterState,
    PlacementDemand,
    validate_placements,
)
from .packing import place_greedy, solve_on_residual
from .registry import available_placers, get_placer, register_placer

__all__ = [
    "PlacementRequest",
    "PlacementItem",
    "PlacementResult",
    "ClusterState",
    "PlacementDemand",
    "CapacityViolation",
    "validate_placements",
    "place_greedy",
    "place_flow",
    "solve_on_residual",
    "MinCostFlow",
    "register_placer",
    "get_placer",
    "available_placers",
]
