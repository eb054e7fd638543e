"""ELPC dynamic-programming heuristic for maximum frame rate without node
reuse (paper Section 3.1.2).

For streaming applications the pipeline processes a continuous series of
datasets; its steady-state frame rate is limited by the *bottleneck* — the
slowest computing node or transport link along the mapped path (Eq. 2).  The
paper restricts this variant to mappings **without node reuse** (one module
per node, a simple path of exactly :math:`n` nodes from the source to the
destination), proves the problem NP-complete by reduction from Hamiltonian
Path to the exact-:math:`n`-hop shortest/widest path problem (see
:mod:`repro.core.reduction`), and proposes an approximate dynamic program:

.. math::

   T^j(v_i) = \\min_{u \\in adj(v_i)} \\max\\left( T^{j-1}(u),\\;
       c_j m_{j-1}/p_{v_i},\\; m_{j-1}/b_{u,v_i} \\right)

where a candidate predecessor :math:`u` is only considered if :math:`v_i` does
not already appear on the partial path recorded for :math:`T^{j-1}(u)`.  The
final frame rate is :math:`1/T^n(v_d)`.

Notes on fidelity:

* Eq. 5 in the paper writes the link term as :math:`m_j / b_{u,v_i}`, but the
  message crossing the link between the nodes of modules :math:`j-1` and
  :math:`j` is the *output of module* :math:`j-1`, i.e. :math:`m_{j-1}` — and
  the paper's own base condition Eq. 6 uses :math:`m_1` for :math:`j = 2`.
  The reproduction uses :math:`m_{j-1}`.
* The visited-node bookkeeping makes the DP a heuristic: when every
  neighbour's partial path already contains a node that is the only gateway to
  the destination, the optimum is missed.  The paper reports this to be
  extremely rare; the ablation benchmark ``bench_ablation_optimality``
  measures it against the exact solver on small instances.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional

from ..exceptions import InfeasibleMappingError
from ..model.cost import computing_time_ms, transport_time_ms
from ..model.network import EndToEndRequest, TransportNetwork
from ..model.pipeline import Pipeline
from ..model.validation import check_framerate_instance
from .dp_table import DPTable
from .mapping import Objective, PipelineMapping, mapping_from_assignment

__all__ = ["elpc_max_frame_rate"]


def elpc_max_frame_rate(pipeline: Pipeline, network: TransportNetwork,
                        request: EndToEndRequest, *,
                        include_link_delay: bool = True,
                        keep_table: bool = False) -> PipelineMapping:
    """Approximate maximum-frame-rate mapping without node reuse (ELPC).

    Parameters
    ----------
    pipeline, network, request:
        The problem instance.  The pipeline's :math:`n` modules are placed on
        a simple path of exactly :math:`n` distinct nodes from
        ``request.source`` to ``request.destination``.
    include_link_delay:
        Include each link's minimum link delay in transport costs (default).
    keep_table:
        Store the filled DP table under ``mapping.extras["dp_table"]``.

    Returns
    -------
    PipelineMapping
        A mapping whose bottleneck time the heuristic minimised; its
        :attr:`~repro.core.mapping.PipelineMapping.frame_rate_fps` is the
        achieved frame rate.

    Raises
    ------
    InfeasibleMappingError
        If no simple source→destination path with exactly ``n`` nodes is
        reachable by the heuristic.  Only the linear checks of
        :func:`~repro.model.validation.check_framerate_instance` run first;
        a pipeline longer than the longest simple path (NP-complete to
        decide) gets the DP's own "found no simple path" error.
    """
    start = time.perf_counter()
    report = check_framerate_instance(pipeline, network, request)
    report.raise_if_infeasible(source=request.source, destination=request.destination)

    n = pipeline.n_modules
    node_ids = network.node_ids()
    table = DPTable(n_modules=n, node_ids=node_ids)
    node_bit = {nid: 1 << i for i, nid in enumerate(node_ids)}

    # visited[j][v]: bitmask of nodes on the partial path realising T^j(v).
    visited: List[Dict[int, int]] = [dict() for _ in range(n)]

    table.set(0, request.source, 0.0, predecessor=None, same_node=False)
    visited[0][request.source] = node_bit[request.source]

    for j in range(1, n):
        module = pipeline.modules[j]
        message_in = module.input_bytes  # m_{j-1}
        prev_col = table.column(j - 1)
        if not prev_col:
            break
        # When placing the last module we only care about the destination node.
        # Conversely, intermediate modules must never sit on the destination:
        # reuse is forbidden, so a partial path through the destination could
        # never be completed — excluding it early avoids wasting the single
        # partial path each cell keeps (a cheap but effective strengthening of
        # the paper's heuristic).
        if j == n - 1:
            candidate_nodes = [request.destination]
        else:
            candidate_nodes = [v for v in node_ids if v != request.destination]
        for v in candidate_nodes:
            v_bit = node_bit[v]
            compute = computing_time_ms(network, v, module.complexity, module.input_bytes)
            for u in network.neighbors(v):
                prev_u = prev_col.get(u)
                if prev_u is None:
                    continue
                mask = visited[j - 1][u]
                if mask & v_bit:
                    continue  # v already used on u's partial path: reuse forbidden
                link_time = transport_time_ms(network, u, v, message_in,
                                              include_link_delay=include_link_delay)
                bottleneck = max(prev_u, compute, link_time)
                if table.relax(j, v, bottleneck, predecessor=u, same_node=False):
                    visited[j][v] = mask | v_bit

    best = table.value(n - 1, request.destination)
    if not math.isfinite(best):
        raise InfeasibleMappingError(
            "ELPC (max frame rate) found no simple path with exactly "
            f"{n} nodes from {request.source} to {request.destination}",
            source=request.source, destination=request.destination, n_modules=n)

    assignment = table.backtrack_assignment(request.destination)
    runtime = time.perf_counter() - start
    mapping = mapping_from_assignment(
        pipeline, network, assignment,
        objective=Objective.MAX_FRAME_RATE, algorithm="elpc",
        runtime_s=runtime, allow_reuse=False)
    extras = {
        "dp_bottleneck_ms": best,
        "dp_relaxations": table.relaxations,
        "dp_finite_cells": table.finite_cell_count(),
        "include_link_delay": include_link_delay,
    }
    if keep_table:
        extras["dp_table"] = table
    mapping.extras.update(extras)
    return mapping
