"""Tensor engine: the ELPC dynamic programs for one or *many* pipelines over
one shared network, solved in a single pass of stacked array operations.

:func:`elpc_min_delay_many` and :func:`elpc_max_frame_rate_many` stack the DP
columns of ``B`` pipelines sharing one
:meth:`~repro.model.network.TransportNetwork.dense_view` into ``(B, k)``
state arrays and advance every pipeline's DP one module stage per pass over
the view's CSR edge layout — :math:`O(B\\,|E|)` entries per stage, reduced
per destination node over a padded-slot layout that :func:`stage_view`
caches per view.  Every floating-point operation runs element-wise in the
same order as the scalar reference solvers, so values, DP tables and
backtracked assignments are **bit-identical** to them
(``tests/test_tensor_equivalence.py``).  Single solves are batches of one
(``B = 1``), and the warm-start engine (:mod:`repro.core.warm`) takes its
cold tables from the same stage sweeps.  The min-delay stages run in-place
kernels on recycled scratch buffers; the frame-rate stages allocate per
stage.  See ``docs/ARCHITECTURE.md`` for the
engine layer map, the batch semantics shared with
:func:`repro.core.batch.solve_many`, and the guide to choosing an engine.

Batch semantics in one line: infeasible or malformed items never abort a
batch — each input slot gets either a
:class:`~repro.core.mapping.PipelineMapping` or the
:class:`~repro.exceptions.ReproError` a scalar solve of the same instance
would have raised.  The single-instance wrappers
:func:`elpc_min_delay_tensor` / :func:`elpc_max_frame_rate_tensor` (what the
registry serves under ``"elpc-tensor"``) run a batch of one and raise the
error entry, giving the uniform solver signature.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..exceptions import InfeasibleMappingError, ReproError
from ..model.link import BITS_PER_BYTE
from ..model.network import DenseNetworkView, EndToEndRequest, TransportNetwork
from ..model.pipeline import Pipeline
from ..model.validation import check_delay_instance, check_framerate_instance
from ..types import NodeId
from .dp_table import DPTable
from .mapping import Objective, PipelineMapping, mapping_from_assignment

__all__ = [
    "elpc_min_delay_many",
    "elpc_max_frame_rate_many",
    "elpc_min_delay_tensor",
    "elpc_max_frame_rate_tensor",
]

#: One entry of a batched solve: the mapping, or the error a scalar solve of
#: the same instance would have raised (infeasibility, or a specification
#: error such as an unknown endpoint node).
BatchEntry = Union[PipelineMapping, ReproError]


def _broadcast_requests(requests: Union[EndToEndRequest, Sequence[EndToEndRequest]],
                        count: int) -> List[EndToEndRequest]:
    if isinstance(requests, EndToEndRequest):
        return [requests] * count
    requests = list(requests)
    if len(requests) != count:
        from ..exceptions import SpecificationError

        raise SpecificationError(
            f"{count} pipelines but {len(requests)} requests; pass one request "
            "per pipeline or a single shared request")
    return requests


def _batched_feasibility(pipelines: Sequence[Pipeline],
                         network: TransportNetwork,
                         requests: Sequence[EndToEndRequest],
                         results: List[Optional[BatchEntry]],
                         *, framerate: bool,
                         view: Optional[DenseNetworkView] = None) -> List[int]:
    """Run the per-instance feasibility checks with one batched BFS.

    Fills ``results`` with per-item error entries for the failing items —
    :class:`InfeasibleMappingError` for infeasible instances,
    :class:`~repro.exceptions.SpecificationError` for malformed ones (unknown
    endpoint nodes) — and returns the indices of the surviving ones: one
    pathological item must not abort the batch, the same policy as the looped
    ``solve_many`` path.  The verdicts and messages are produced by the same
    :func:`check_delay_instance` / :func:`check_framerate_instance` functions
    the scalar solvers call — only the hop distances are precomputed, one BFS
    level per array pass for all distinct sources at once (items with unknown
    endpoints fall back to the checks' own lookups, which raise the scalar
    solvers' exact errors).
    """
    if view is None:
        view = network.dense_view()
    sources = sorted({r.source for r in requests
                      if r.source in view.index_of
                      and r.destination in view.index_of})
    levels = view.hop_levels([view.index_of[s] for s in sources])
    level_of = {s: levels[i] for i, s in enumerate(sources)}
    check = check_framerate_instance if framerate else check_delay_instance
    alive: List[int] = []
    for i, (pipeline, request) in enumerate(zip(pipelines, requests)):
        hop_row = level_of.get(request.source)
        hops = None
        if hop_row is not None and request.destination in view.index_of:
            hops = int(hop_row[view.index_of[request.destination]])
        try:
            check(pipeline, network, request, hops=hops).raise_if_infeasible(
                source=request.source, destination=request.destination)
        except ReproError as exc:
            results[i] = exc
        else:
            alive.append(i)
    return alive


def _backtrack(view: DenseNetworkView, pred: np.ndarray,
               last_index: int) -> List[NodeId]:
    """Follow the per-column predecessor-index arrays back to the base column."""
    n = pred.shape[0]
    assignment: List[NodeId] = [0] * n
    idx = last_index
    for j in range(n - 1, 0, -1):
        assignment[j] = view.node_ids[idx]
        idx = int(pred[j, idx])
    assignment[0] = view.node_ids[idx]
    return assignment


def _as_dp_table(view: DenseNetworkView, values: np.ndarray, pred: np.ndarray,
                 same: Optional[np.ndarray]) -> DPTable:
    """Materialise one item's ``(n, k)`` arrays as a :class:`DPTable`.

    ``same`` is ``None`` for the frame-rate DP, which never stays on a node.
    """
    n = values.shape[0]
    table = DPTable(n_modules=n, node_ids=list(view.node_ids))
    for j in range(n):
        for i in np.flatnonzero(np.isfinite(values[j])):
            predecessor = None if j == 0 else view.node_ids[int(pred[j, i])]
            table.set(j, view.node_ids[int(i)], float(values[j, i]),
                      predecessor=predecessor,
                      same_node=same is not None and bool(same[j, i]))
    return table


def _stage_arrays(pipelines: Sequence[Pipeline], alive: Sequence[int],
                  n_max: int) -> tuple:
    """(n_max, A) workload and message-size arrays, zero-padded past each end."""
    A = len(alive)
    workload = np.zeros((n_max, A))
    message = np.zeros((n_max, A))
    for a, i in enumerate(alive):
        modules = pipelines[i].modules
        workload[:len(modules), a] = [m.complexity * m.input_bytes
                                      for m in modules]
        message[:len(modules), a] = [m.input_bytes for m in modules]
    return workload, message


# --------------------------------------------------------------------------- #
# Padded-slot staging of a dense view
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class StagedView:
    """The DP-stage arrays of one :class:`DenseNetworkView`.

    Produced (and cached per view) by :func:`stage_view`: the view's own
    CSR edge arrays and transport vectors, plus the padded-slot layout
    :func:`segment_min` reduces over.

    Attributes
    ----------
    k, n_directed_edges, max_deg:
        Node count, directed-edge count ``2|E|``, and the maximum in-degree
        (the padded-slot width; 0 for an edgeless network).
    power_ms:
        ``(k,)`` node processing powers scaled to the DP's ms units
        (``view.power * 1e3``).
    edge_u, edge_v:
        ``(2|E|,)`` directed-edge endpoint indices in CSR order.
    edge_bandwidth_bits_per_s, edge_link_delay:
        ``(2|E|,)`` per-edge transport attributes, aligned with ``edge_u``.
    rows:
        ``arange(k)`` — the same-node predecessor column.
    flat_slot:
        ``(2|E|,)`` scatter targets of each CSR edge inside the flattened
        ``(k * max_deg,)`` padded layout (slots ordered by ascending ``u``
        inside each node, so the first minimal slot is the lowest
        predecessor index).
    slot_to_u_flat:
        ``(k * max(max_deg, 1),)`` inverse map from padded slot to edge
        source index (0 in padding slots).
    row_base:
        ``(k,)`` offsets of each node's first slot in the flattened layout.
    """

    k: int
    n_directed_edges: int
    max_deg: int
    power_ms: np.ndarray
    edge_u: np.ndarray
    edge_v: np.ndarray
    edge_bandwidth_bits_per_s: np.ndarray
    edge_link_delay: np.ndarray
    rows: np.ndarray
    flat_slot: np.ndarray
    slot_to_u_flat: np.ndarray
    row_base: np.ndarray


_STAGED: Dict[int, StagedView] = {}


def stage_view(view: DenseNetworkView) -> StagedView:
    """The view's :class:`StagedView`, built on first use and cached.

    Later calls return the same object until the view is garbage-collected
    (networks cache their view until mutation, so one staging serves every
    solve over an unchanged topology).
    """
    key = id(view)
    staged = _STAGED.get(key)
    if staged is not None:
        return staged
    k = view.n_nodes
    E2 = view.n_directed_edges
    counts = np.diff(view.edge_indptr)
    max_deg = int(counts.max()) if E2 else 0
    slot_within = np.arange(E2) - np.repeat(view.edge_indptr[:-1], counts)
    flat_slot = (view.edge_v * max_deg + slot_within).astype(np.intp)
    slot_to_u = np.zeros(k * max(max_deg, 1), dtype=np.intp)
    slot_to_u[flat_slot] = view.edge_u
    staged = StagedView(
        k=k, n_directed_edges=E2, max_deg=max_deg,
        power_ms=view.power * 1e3,
        edge_u=view.edge_u,
        edge_v=view.edge_v,
        edge_bandwidth_bits_per_s=view.edge_bandwidth_bits_per_s,
        edge_link_delay=view.edge_link_delay,
        rows=np.arange(k),
        flat_slot=flat_slot,
        slot_to_u_flat=slot_to_u,
        row_base=(np.arange(k) * max_deg).astype(np.intp))
    _STAGED[key] = staged
    # Evict on view collection so solves over many throwaway networks do
    # not pin their layouts forever.
    weakref.finalize(view, _STAGED.pop, key, None)
    return staged


def segment_min(values: np.ndarray, staged: StagedView):
    """Per-destination-node minimum and lowest-``u`` argmin over edge values.

    ``values`` is ``(A, 2|E|)`` of candidate costs in the view's CSR edge
    order; returns ``(best, best_u)`` of shape ``(A, k)``.  ``best`` is
    ``inf`` (and ``best_u`` is 0) for nodes with no incoming edge or no
    finite candidate, exactly what ``np.argmin`` over an all-``inf`` dense
    column would yield.

    Candidates scatter into an inf-padded ``(A, k, max_deg)`` tensor whose
    contiguous min/argmin over the last axis is faster than
    ``np.minimum.reduceat`` on the small per-node segments real topologies
    have, and the ascending-``u`` slot order preserves the lowest-predecessor
    tie-break for free.
    """
    A = values.shape[0]
    if staged.max_deg == 0:  # edgeless network: no cross-link candidates
        return (np.full((A, staged.k), np.inf),
                np.zeros((A, staged.k), dtype=np.int64))
    pad = np.full((A, staged.k * staged.max_deg), np.inf)
    pad[:, staged.flat_slot] = values
    # The winning slot's flat index gathers both its ``u`` and the minimum.
    arg = np.argmin(pad.reshape(A, staged.k, staged.max_deg), axis=2)
    arg += staged.row_base[None, :]
    best_u = staged.slot_to_u_flat.take(arg)
    arg += (np.arange(A) * pad.shape[1])[:, None]
    best = pad.take(arg)
    best_u = np.where(np.isfinite(best), best_u, 0)
    return best, best_u


# --------------------------------------------------------------------------- #
# Min-delay DP stage sweep
# --------------------------------------------------------------------------- #
def _min_delay_stages(staged: StagedView, A: int, n_arr: np.ndarray,
                      src: np.ndarray, workload: np.ndarray,
                      message: np.ndarray, *,
                      include_link_delay: bool) -> Tuple[np.ndarray,
                                                         np.ndarray,
                                                         np.ndarray]:
    """The min-delay sweep: in-place kernels on scratch buffers.

    One stage is ~12 array passes over ``(A, 2|E|)`` / ``(A, k)`` operands,
    so recycling the storage (and taking the slice fast path while every
    pipeline is still running) removes a third of the batched DP's wall time
    without touching any arithmetic.  Returns the ``(values, pred, same)``
    state arrays, with every unreachable (``inf``) cell carrying
    ``pred = -1`` / ``same = False`` — the layout the scalar reference's
    DP tables and the warm-start engine share.
    """
    k = staged.k
    n_max = int(n_arr.max())

    values = np.full((A, n_max, k), np.inf)
    pred = np.full((A, n_max, k), -1, dtype=np.int64)
    same = np.zeros((A, n_max, k), dtype=bool)
    values[np.arange(A), 0, src] = 0.0

    # The per-node minimum runs over the staged padded-slot layout (see
    # segment_min): edge costs scatter into an (A, k, max_deg)
    # tensor (inf-padded, slots ordered by ascending u inside each node),
    # whose contiguous min/argmin over the last axis is both faster than
    # np.minimum.reduceat on small segments and preserves the lowest-u
    # tie-break (np.argmin keeps the first minimal slot).
    E2 = staged.n_directed_edges
    max_deg = staged.max_deg
    flat_slot = staged.flat_slot
    slot_to_u_flat = staged.slot_to_u_flat
    row_base = staged.row_base
    power_ms = staged.power_ms
    buf_cost = np.empty((A, E2))
    buf_gather = np.empty((A, E2))
    # Padding slots are written once and never touched again: every stage's
    # scatter overwrites exactly the real-edge slots, so the inf padding (and
    # therefore the min/argmin semantics) persists across stages for free.
    buf_pad = np.full((A, k * max(max_deg, 1)), np.inf)
    buf_compute = np.empty((A, k))
    buf_best = np.empty((A, k))
    buf_arg = np.empty((A, k), dtype=np.intp)
    buf_best_u = np.empty((A, k), dtype=np.intp)
    buf_take_cross = np.empty((A, k), dtype=bool)
    edge_u_i = staged.edge_u
    edge_v_i = staged.edge_v
    bw_bits_e = staged.edge_bandwidth_bits_per_s
    delay_e = staged.edge_link_delay
    n_min = int(n_arr.min())

    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(1, n_max):
            if j < n_min:  # every pipeline still running: pure slice paths
                act = None
                A_j = A
                prev = values[:, j - 1]
                stage_workload = workload[j]
                stage_message = message[j]
            else:
                act = np.flatnonzero(n_arr > j)
                A_j = act.size
                if A_j == 0:
                    break
                prev = values[act, j - 1]
                stage_workload = workload[j][act]
                stage_message = message[j][act]
            cost = buf_cost[:A_j]
            gather = buf_gather[:A_j]
            pad = buf_pad[:A_j]
            compute = buf_compute[:A_j]
            cross_best = buf_best[:A_j]
            arg = buf_arg[:A_j]
            best_u = buf_best_u[:A_j]
            take_cross = buf_take_cross[:A_j]
            np.divide(stage_workload[:, None], power_ms[None, :], out=compute)
            # Transport term (m·8/b)·10³ + d on the directed-edge list, the
            # exact operation chain of transport_matrix_ms / transfer_time_ms.
            msg8 = stage_message * BITS_PER_BYTE
            np.divide(msg8[:, None], bw_bits_e[None, :], out=cost)
            np.multiply(cost, 1e3, out=cost)
            if include_link_delay:
                np.add(cost, delay_e[None, :], out=cost)
            # Sub-case (ii) on edges: (T_prev(u) + compute(v)) + trans(u, v),
            # summed in the scalar solver's order so values match bit for bit.
            prev.take(edge_u_i, axis=1, out=gather)
            np.add(gather, compute.take(edge_v_i, axis=1), out=gather)
            np.add(gather, cost, out=cost)
            if max_deg:
                pad[:, flat_slot] = cost
                pad3 = pad.reshape(A_j, k, max_deg)
                # Slots are ordered by ascending u inside each node, so the
                # first minimal slot is the lowest predecessor index — the
                # scalar solver's tie-break.  The minimum itself is gathered
                # back from the winning slot (cheaper than a second
                # 9-element-axis reduction).
                np.argmin(pad3, axis=2, out=arg)
                np.add(arg, row_base[None, :], out=arg)
                slot_to_u_flat.take(arg, out=best_u)
                cross_best = np.take_along_axis(pad, arg, axis=1)
            else:  # edgeless network: only same-node transitions exist
                cross_best.fill(np.inf)
                best_u.fill(0)
            # Sub-case (i): stay on the node running module j-1.  Strict "<"
            # mirrors DPTable.relax, so ties keep the same-node transition.
            # The column is written in place: same-node result first, then the
            # cross-link result where it strictly won (the selection
            # np.where(take_cross, cross_best, same_cand) would make).
            col = values[:, j] if act is None else np.empty((A_j, k))
            np.add(prev, compute, out=col)
            np.less(cross_best, col, out=take_cross)
            np.copyto(col, cross_best, where=take_cross)
            pcol = pred[:, j] if act is None else np.empty((A_j, k),
                                                           dtype=np.int64)
            pcol[:] = staged.rows[None, :]
            np.copyto(pcol, best_u, where=take_cross)
            scol = same[:, j] if act is None else np.empty((A_j, k),
                                                           dtype=bool)
            np.invert(take_cross, out=scol)
            if act is not None:
                values[act, j] = col
                pred[act, j] = pcol
                same[act, j] = scol
    # Unreachable cells carry pred = -1 / same = False; normalising once
    # after the sweep replaces an isfinite pass per stage.  Cells beyond an
    # item's own length are untouched inf/-1/False padding, so the same mask
    # covers them too.
    unreachable = ~np.isfinite(values)
    pred[unreachable] = -1
    same[unreachable] = False
    return values, pred, same


# --------------------------------------------------------------------------- #
# Frame-rate DP stage sweep
# --------------------------------------------------------------------------- #
def _framerate_stages(staged: StagedView, A: int, n_arr: np.ndarray,
                      src: np.ndarray, dst: np.ndarray, workload: np.ndarray,
                      message: np.ndarray, *,
                      include_link_delay: bool) -> Tuple[np.ndarray,
                                                         np.ndarray]:
    """The frame-rate min-max sweep over the padded-slot segment minimum.

    The per-pipeline visited-path guard is an ``(A, k, k)`` boolean tensor
    gathered along each stage's chosen predecessors; while every pipeline is
    still running it is read and replaced whole (no ``visited[act]`` copies),
    the same slice path :func:`_min_delay_stages` takes.  Returns the
    ``(values, pred)`` state arrays.
    """
    k = staged.k
    n_max = int(n_arr.max())
    n_min = int(n_arr.min())
    arange_A = np.arange(A)
    values = np.full((A, n_max, k), np.inf)
    pred = np.full((A, n_max, k), -1, dtype=np.int64)
    values[arange_A, 0, src] = 0.0
    # visited[a, u, w]: node w lies on the partial path realising T^{j-1}(u).
    visited = np.zeros((A, k, k), dtype=bool)
    visited[arange_A, src, src] = True
    # Flat (u, v) cell of every directed edge in a (k * k) visited row.
    edge_uv = staged.edge_u * k + staged.edge_v

    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(1, n_max):
            if j < n_min:  # every pipeline still running: pure slice paths
                act = slice(None)
                vis = visited
            else:
                act = np.flatnonzero(n_arr > j)
                if act.size == 0:
                    break
                vis = visited[act]
            A_j = vis.shape[0]
            compute = workload[j][act][:, None] / staged.power_ms[None, :]
            trans = (message[j][act][:, None] * BITS_PER_BYTE
                     / staged.edge_bandwidth_bits_per_s[None, :]) * 1e3
            if include_link_delay:
                trans = trans + staged.edge_link_delay[None, :]
            prev = values[act, j - 1]
            # Min-max update on edges: max(T_prev(u), compute(v), trans(u, v)).
            cand = np.maximum(
                np.maximum(np.take(prev, staged.edge_u, axis=1),
                           np.take(compute, staged.edge_v, axis=1)), trans)
            # Visited-path guard: u -> v is forbidden when v already lies on
            # u's partial path (node reuse is not allowed in this variant).
            cand[vis.reshape(A_j, k * k)[:, edge_uv]] = np.inf
            # Intermediate modules never sit on the destination; pipelines of
            # different lengths hit their last stage at different j.
            dst_act = dst[act]
            last = n_arr[act] - 1 == j
            if not last.all():
                cand[~last[:, None]
                     & (staged.edge_v[None, :] == dst_act[:, None])] = np.inf
            col, best_u = segment_min(cand, staged)
            if last.any():
                # Only the destination cell of an item's last column matters.
                li = np.flatnonzero(last)
                dst_vals = col[li, dst_act[li]]
                col[li] = np.inf
                col[li, dst_act[li]] = dst_vals
            values[act, j] = col
            pred[act, j] = np.where(np.isfinite(col), best_u, -1)
            # Row v of item a's new guard is row best_u[a, v] of its old one:
            # one contiguous row gather over the (A_j * k, k) stack.
            rows_flat = (best_u + (np.arange(A_j) * k)[:, None]).ravel()
            new_visited = vis.reshape(A_j * k, k).take(rows_flat, axis=0)
            new_visited = new_visited.reshape(A_j, k, k)
            new_visited[:, staged.rows, staged.rows] = True
            if j < n_min:
                visited = new_visited
            else:
                visited[act] = new_visited
    return values, pred


# --------------------------------------------------------------------------- #
# Batched solves
# --------------------------------------------------------------------------- #
def _no_mapping_error(engine: str, objective: Objective,
                      request: EndToEndRequest,
                      n: int) -> InfeasibleMappingError:
    """The error for a DP whose destination cell stayed unreachable."""
    if objective is Objective.MAX_FRAME_RATE:
        message = (f"{engine} (max frame rate) found no simple path with "
                   f"exactly {n} nodes from {request.source} to "
                   f"{request.destination}")
    else:
        message = (f"{engine} (min delay) found no feasible mapping reaching "
                   "the destination")
    return InfeasibleMappingError(message, source=request.source,
                                  destination=request.destination,
                                  n_modules=n)


def _solve_batch(objective: Objective, pipelines: Sequence[Pipeline],
                 network: TransportNetwork,
                 requests: Union[EndToEndRequest, Sequence[EndToEndRequest]],
                 *, include_link_delay: bool, keep_table: bool,
                 view: Optional[DenseNetworkView]) -> List[BatchEntry]:
    """Both ``*_many`` functions: feasibility, one stage sweep, backtracks."""
    start = time.perf_counter()
    framerate = objective is Objective.MAX_FRAME_RATE
    pipelines = list(pipelines)
    B = len(pipelines)
    requests = _broadcast_requests(requests, B)
    results: List[Optional[BatchEntry]] = [None] * B
    if B == 0:
        return []
    alive = _batched_feasibility(pipelines, network, requests, results,
                                 framerate=framerate, view=view)
    if not alive:
        return results  # type: ignore[return-value]

    if view is None:
        view = network.dense_view()
    A = len(alive)
    n_arr = np.array([pipelines[i].n_modules for i in alive])
    src = np.array([view.index_of[requests[i].source] for i in alive])
    dst = np.array([view.index_of[requests[i].destination] for i in alive])
    workload, message = _stage_arrays(pipelines, alive, int(n_arr.max()))
    same = None
    if framerate:
        values, pred = _framerate_stages(
            stage_view(view), A, n_arr, src, dst, workload, message,
            include_link_delay=include_link_delay)
    else:
        values, pred, same = _min_delay_stages(
            stage_view(view), A, n_arr, src, workload, message,
            include_link_delay=include_link_delay)
    # Cells past an item's own length stay inf, so whole-row sums count
    # exactly the item's finite cells.
    finite_cells = np.isfinite(values).sum(axis=(1, 2))

    per_item_runtime = (time.perf_counter() - start) / A
    for a, i in enumerate(alive):
        n = int(n_arr[a])
        best = float(values[a, n - 1, dst[a]])
        if not np.isfinite(best):
            results[i] = _no_mapping_error("ELPC-tensor", objective,
                                           requests[i], n)
            continue
        mapping = mapping_from_assignment(
            pipelines[i], network, _backtrack(view, pred[a, :n], int(dst[a])),
            objective=objective, algorithm="elpc-tensor",
            runtime_s=per_item_runtime, allow_reuse=not framerate)
        mapping.extras.update({
            "dp_bottleneck_ms" if framerate else "dp_value_ms": best,
            "dp_finite_cells": int(finite_cells[a]),
            "include_link_delay": include_link_delay,
            "tensor_batch": B,
        })
        if keep_table:
            mapping.extras["dp_table"] = _as_dp_table(
                view, values[a, :n], pred[a, :n],
                None if same is None else same[a, :n])
        results[i] = mapping
    return results  # type: ignore[return-value]


def elpc_min_delay_many(pipelines: Sequence[Pipeline],
                        network: TransportNetwork,
                        requests: Union[EndToEndRequest, Sequence[EndToEndRequest]],
                        *, include_link_delay: bool = True,
                        keep_table: bool = False,
                        view: Optional[DenseNetworkView] = None) -> List[BatchEntry]:
    """Batched exact minimum-delay mappings of many pipelines over one network.

    Solves the same problem as ``B`` calls of
    :func:`repro.core.elpc_delay.elpc_min_delay` — same optima, same
    feasibility verdicts, same tie-breaking, bit-identical DP tables — but
    advances all ``B`` dynamic programs together, one module stage per pass of
    CSR edge-array operations.  Pipelines of different lengths are supported;
    an item stops participating once its last column is filled.

    Parameters
    ----------
    pipelines:
        The pipelines to map.
    network:
        The shared transport network.
    requests:
        One :class:`EndToEndRequest` per pipeline, or a single request shared
        by all of them.
    include_link_delay, keep_table:
        As in the scalar solvers; ``keep_table`` attaches each
        item's :class:`~repro.core.dp_table.DPTable` under
        ``mapping.extras["dp_table"]``.
    view:
        Optional dense view to advance the DP over in place of
        ``network.dense_view()`` — the solve-from-attached-view entry point
        for callers holding a view re-wrapped from a shared-memory block
        (:func:`repro.model.network.attach_shared_view`): the solve is
        zero-copy, and since the arrays are byte-identical to the exporting
        process's view, so are the results.  (The parallel runtime itself
        reaches the same effect by installing the attached view on a rebuilt
        network via :meth:`TransportNetwork.from_dense_view`, so plain
        ``solve_many`` batches need no extra argument.)  ``view`` must
        describe ``network``'s topology.

    Returns
    -------
    list
        One entry per pipeline, in input order: the
        :class:`~repro.core.mapping.PipelineMapping`, or the
        :class:`~repro.exceptions.ReproError` a scalar solve of that instance
        would have raised (:class:`InfeasibleMappingError` for infeasible
        items, ``SpecificationError`` for malformed ones such as unknown
        endpoint nodes).  Nothing is raised per item — one pathological
        instance must not abort the batch.
    """
    return _solve_batch(Objective.MIN_DELAY, pipelines, network, requests,
                        include_link_delay=include_link_delay,
                        keep_table=keep_table, view=view)


def elpc_max_frame_rate_many(pipelines: Sequence[Pipeline],
                             network: TransportNetwork,
                             requests: Union[EndToEndRequest, Sequence[EndToEndRequest]],
                             *, include_link_delay: bool = True,
                             keep_table: bool = False,
                             view: Optional[DenseNetworkView] = None) -> List[BatchEntry]:
    """Batched maximum-frame-rate heuristic for many pipelines over one network.

    The batched counterpart of
    :func:`repro.core.elpc_framerate.elpc_max_frame_rate`: the min-max column
    update runs on the CSR edge layout through the padded-slot segment
    minimum, the per-pipeline visited-path guard is a ``(B, k, k)``
    boolean tensor gathered along each stage's chosen predecessors, and the
    destination-as-intermediate exclusion is applied per item (pipelines of
    different lengths reach their last column at different stages).  Values,
    feasibility outcomes and backtracked assignments are bit-identical to the
    scalar heuristic.

    See :func:`elpc_min_delay_many` for parameters and batch semantics.
    """
    return _solve_batch(Objective.MAX_FRAME_RATE, pipelines, network,
                        requests, include_link_delay=include_link_delay,
                        keep_table=keep_table, view=view)


def elpc_min_delay_tensor(pipeline: Pipeline, network: TransportNetwork,
                          request: EndToEndRequest, *,
                          include_link_delay: bool = True,
                          keep_table: bool = False) -> PipelineMapping:
    """Single-instance front of :func:`elpc_min_delay_many` (``"elpc-tensor"``).

    Runs a batch of one so the tensor engine satisfies the registry's uniform
    solver signature; for real batches use
    :func:`repro.core.batch.solve_many`, which groups a batch by network and
    hands each group to the batched function in one call.
    """
    [entry] = elpc_min_delay_many([pipeline], network, [request],
                                  include_link_delay=include_link_delay,
                                  keep_table=keep_table)
    if isinstance(entry, ReproError):
        raise entry
    return entry


def elpc_max_frame_rate_tensor(pipeline: Pipeline, network: TransportNetwork,
                               request: EndToEndRequest, *,
                               include_link_delay: bool = True,
                               keep_table: bool = False) -> PipelineMapping:
    """Single-instance front of :func:`elpc_max_frame_rate_many` (``"elpc-tensor"``)."""
    [entry] = elpc_max_frame_rate_many([pipeline], network, [request],
                                       include_link_delay=include_link_delay,
                                       keep_table=keep_table)
    if isinstance(entry, ReproError):
        raise entry
    return entry
