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
cold tables from the same stage sweeps.  Both stage sweeps run in-place
kernels on scratch buffers recycled across stages.  See
``docs/ARCHITECTURE.md`` for the engine layer map, the batch semantics
shared with :func:`repro.core.batch.solve_many`, and the guide to choosing
an engine.

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

import bisect
import math
import time
import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..exceptions import (InfeasibleMappingError, ReproError,
                          SpecificationError)
from ..model.link import BITS_PER_BYTE
from ..model.network import DenseNetworkView, EndToEndRequest, TransportNetwork
from ..model.pipeline import Pipeline
from ..model.validation import check_delay_instance, check_framerate_instance
from .dp_table import DPTable
from .mapping import Objective, PipelineMapping

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
        raise SpecificationError(
            f"{count} pipelines but {len(requests)} requests; pass one request "
            "per pipeline or a single shared request")
    return requests


def _batched_feasibility(pipelines: Sequence[Pipeline],
                         network: TransportNetwork,
                         requests: Sequence[EndToEndRequest],
                         results: List[Optional[BatchEntry]],
                         *, framerate: bool,
                         view: DenseNetworkView) -> List[int]:
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
    solvers' exact errors).  ``view`` is ``network.dense_view()``.
    """
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
    stages = np.zeros((2, n_max, len(alive)))
    for a, i in enumerate(alive):
        vectors = pipelines[i].stage_vectors()
        stages[:, :vectors.shape[1], a] = vectors
    return stages[0], stages[1]


def _assemble(view: DenseNetworkView, network: TransportNetwork,
              objective: Objective, algorithm: str,
              pipelines: Sequence[Pipeline], pred: np.ndarray,
              rows: Sequence[int], dst: Sequence[int],
              extras: Sequence[Dict], *,
              runtime_s: float) -> List[PipelineMapping]:
    """Backtrack a flush's solved items and build their mappings.

    ``pred`` is the flush's predecessor table, indexed ``[item, stage,
    column]`` (columns past the view's ``k`` are never read on a sound
    table).  Item ``rows[b]`` — pipeline ``pipelines[b]``, destination
    column ``dst[b]`` — becomes the ``b``-th mapping, carrying
    ``extras[b]``.

    Each item is followed back from its destination cell; a predecessor
    equal to the current column is a stay on the same node, anything else
    closes a group, so the groups are a contiguous ordered cover by
    construction.  Then every hop of every path is checked against the
    view's CSR edges (:attr:`StagedView.hop_ok`) in one array pass: a path
    that is not a walk (a corrupted table, or a kernel fault) raises the
    :class:`~repro.exceptions.SpecificationError` the public
    :class:`PipelineMapping` constructor would, and no mapping of the flush
    is returned.  The mappings are built through
    :meth:`PipelineMapping._trusted`, which skips the per-hop
    re-validation.  The backtrack stays a per-item Python walk: a stage-wise
    array backtrack costs a few array calls per stage, which a flush of one
    or two items (what a serving flush holds) never earns back.
    """
    node_ids = view.node_ids
    width = view.n_nodes + 1  # row stride of StagedView.hop_ok
    cell = pred.item
    module_ids: List[int] = []
    built: List[PipelineMapping] = []
    hops: List[int] = []   # hop_ok index of every hop, item after item
    ends: List[int] = []   # len(hops) after each item
    for b, a in enumerate(rows):
        end = pipelines[b].n_modules
        if end > len(module_ids):
            module_ids = list(range(end))
        current = dst[b]
        cols = [current]
        groups = []
        for j in range(end - 1, 0, -1):
            previous = cell(a, j, current)
            if previous != current:
                hops.append(previous * width + current)
                groups.append(module_ids[j:end])
                cols.append(previous)
                current = previous
                end = j
        groups.append(module_ids[:end])
        groups.reverse()
        cols.reverse()
        ends.append(len(hops))
        built.append(PipelineMapping._trusted(
            pipelines[b], network, groups, [node_ids[c] for c in cols],
            objective, algorithm, runtime_s,
            objective is Objective.MIN_DELAY, extras[b]))
    if hops:
        linked = stage_view(view).hop_ok.take(hops)
        if np.count_nonzero(linked) != len(hops):
            bad = bisect.bisect_right(ends, int(np.argmin(linked)))
            raise SpecificationError(
                f"{built[bad].path} is not a walk in the network")
    return built


# --------------------------------------------------------------------------- #
# Padded-slot staging of a dense view
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class StagedView:
    """The DP-stage arrays of one :class:`DenseNetworkView`.

    Produced (and cached per view) by :func:`stage_view`: the view's own
    CSR edge arrays and transport vectors, plus the padded-slot layout both
    DP sweeps take their per-node minimum over: a node with no incoming edge
    or no finite candidate gets ``inf``, and the first minimal slot is the
    lowest predecessor index.  The layout depends on the topology alone, so
    a view and all of its scalar patches share one set of layout arrays;
    only ``power_ms`` and the edge vectors differ between them.

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
    slot_to_edge_flat:
        ``(k * max(max_deg, 1),)`` inverse map from padded slot to CSR edge
        index (-1 in padding slots).
    row_base:
        ``(k,)`` offsets of each node's first slot in the flattened layout.
    slot_u, slot_edge:
        ``(k, max(max_deg, 1))`` per-node slot sources and CSR edge indices
        for the warm engine, whose padding names the sentinel column ``k``
        and the sentinel edge ``2|E|`` instead.
    hop_ok:
        ``((k + 1) ** 2,)`` flattened ``(k + 1, k + 1)`` link table: ``True``
        at ``u * (k + 1) + v`` for every directed edge.  Row and column
        ``k`` are all ``False``, so a ``-1`` (no predecessor) on either end
        of a hop lands there and fails the walk check of :func:`_assemble`.
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
    slot_to_edge_flat: np.ndarray
    row_base: np.ndarray
    slot_u: np.ndarray
    slot_edge: np.ndarray
    hop_ok: np.ndarray


_STAGED: Dict[int, StagedView] = {}
#: Topology-only staging, keyed by the id of the ``edge_u`` array a view
#: shares with all of its patches.  The entries hold no view array, so the
#: key's finalizer fires once the last view of the topology is collected.
_LAYOUTS: Dict[int, Dict[str, object]] = {}


def _slot_layout(view: DenseNetworkView) -> Dict[str, object]:
    """The padded-slot layout of ``view``'s topology, built once per topology."""
    key = id(view.edge_u)
    layout = _LAYOUTS.get(key)
    if layout is not None:
        return layout
    k = view.n_nodes
    E2 = view.n_directed_edges
    counts = np.diff(view.edge_indptr)
    max_deg = int(counts.max()) if E2 else 0
    D = max(max_deg, 1)
    slot_within = np.arange(E2) - np.repeat(view.edge_indptr[:-1], counts)
    flat_slot = (view.edge_v * max_deg + slot_within).astype(np.intp)
    slot_to_u = np.zeros(k * D, dtype=np.intp)
    slot_to_u[flat_slot] = view.edge_u
    slot_to_edge = np.full(k * D, -1, dtype=np.intp)
    slot_to_edge[flat_slot] = np.arange(E2)
    padding = slot_to_edge < 0
    hop_ok = np.zeros((k + 1) ** 2, dtype=bool)
    hop_ok[view.edge_u * (k + 1) + view.edge_v] = True
    layout = {
        "k": k, "n_directed_edges": E2, "max_deg": max_deg,
        "rows": np.arange(k), "flat_slot": flat_slot,
        "slot_to_u_flat": slot_to_u, "slot_to_edge_flat": slot_to_edge,
        "row_base": (np.arange(k) * max_deg).astype(np.intp),
        "slot_u": np.where(padding, k, slot_to_u).reshape(k, D),
        "slot_edge": np.where(padding, E2, slot_to_edge).reshape(k, D),
        "hop_ok": hop_ok,
    }
    _LAYOUTS[key] = layout
    weakref.finalize(view.edge_u, _LAYOUTS.pop, key, None)
    return layout


def stage_view(view: DenseNetworkView) -> StagedView:
    """The view's :class:`StagedView`, built on first use and cached.

    Later calls return the same object until the view is garbage-collected
    (networks cache their view until mutation, so one staging serves every
    solve over an unchanged topology).  A scalar patch of a staged view
    restages only ``power_ms`` and the edge vectors; the slot layout is
    shared with every other view of the same topology.
    """
    key = id(view)
    staged = _STAGED.get(key)
    if staged is not None:
        return staged
    staged = StagedView(
        power_ms=view.power * 1e3,
        edge_u=view.edge_u,
        edge_v=view.edge_v,
        edge_bandwidth_bits_per_s=view.edge_bandwidth_bits_per_s,
        edge_link_delay=view.edge_link_delay,
        **_slot_layout(view))
    _STAGED[key] = staged
    # Evict on view collection so solves over many throwaway networks do
    # not pin their layouts forever.
    weakref.finalize(view, _STAGED.pop, key, None)
    return staged


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

    # The per-node minimum runs over the staged padded-slot layout: edge
    # costs scatter into an (A, k, max_deg) tensor (inf-padded, slots
    # ordered by ascending u inside each node), whose contiguous
    # min/argmin over the last axis is both faster than
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
    """The frame-rate min-max sweep: in-place kernels on scratch buffers.

    Items run longest first, so each stage's still-running items are a
    prefix of the batch and every operand is a slice of a recycled buffer;
    the state is stage-major, so each stage reads and writes contiguous
    ``(A, k)`` rows.  Every stage's compute and transport terms are
    computed up front.  The visited-path guard is an ``(A, k, k)`` boolean
    tensor whose rows follow each stage's chosen predecessors.  An item's
    last column reduces only its destination's in-edges.  Returns the
    ``(values, pred)`` state arrays in input order, laid out
    ``(A, n_max, k)``; unreachable (``inf``) cells carry ``pred = -1``.
    """
    k = staged.k
    max_deg = staged.max_deg
    n_max = int(n_arr.max())
    # Longest first (stable, so equal lengths keep their order): stage j
    # runs items [:running[j]], and items [running[j + 1]:running[j]] fill
    # their last column there.
    order = np.argsort(-n_arr, kind="stable")
    running = np.count_nonzero(
        n_arr[:, None] > np.arange(n_max + 1)[None, :], axis=0).tolist()
    src, dst = src[order], dst[order]
    arange_A = np.arange(A)

    values = np.full((n_max, A, k), np.inf)
    pred = np.empty((n_max, A, k), dtype=np.int64)
    pred[0] = -1
    values[0, arange_A, src] = 0.0
    width = k * max(max_deg, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        # Stage j's terms, row j - 1, in the scalar solver's operation
        # chains: w / p and (m·8/b)·10³ + d.
        compute = workload[1:, order, None] / staged.power_ms[None, None, :]
        trans = (message[1:, order, None] * BITS_PER_BYTE
                 / staged.edge_bandwidth_bits_per_s[None, None, :])
        trans *= 1e3
        if include_link_delay:
            trans += staged.edge_link_delay[None, None, :]
    # visited[a, u, w]: node w lies on the partial path realising T^{j-1}(u).
    # Every path also carries its destination, which intermediate modules
    # must never sit on: the guard below then masks the edges into it.
    visited = np.zeros((A, k, k), dtype=bool)
    visited[arange_A, src, src] = True
    visited[arange_A, src, dst] = True
    spare = np.empty_like(visited)
    # Flat (u, v) cell of every directed edge in a (k * k) visited row.
    edge_uv = staged.edge_u * k + staged.edge_v
    row_offset = (arange_A * k)[:, None]
    pad_offset = (arange_A * width)[:, None]
    cand = np.empty((A, staged.n_directed_edges))
    gather = np.empty_like(cand)
    guard = np.empty(cand.shape, dtype=bool)
    # As in _min_delay_stages: every stage's scatter overwrites exactly the
    # real-edge slots, so the inf padding is written once.
    pad = np.full((A, width), np.inf)
    arg = np.empty((A, k), dtype=np.intp)
    flat = np.empty_like(arg)
    # Slots of each item's destination row, for its last column: blocked in
    # padding, and everywhere if the path starts on the destination.
    dst_slots = staged.row_base[dst][:, None] + np.arange(max_deg)[None, :]
    dst_u = staged.slot_to_u_flat[dst_slots]
    dst_edge = staged.slot_to_edge_flat[dst_slots]
    dst_blocked = (dst_edge < 0) | (src == dst)[:, None]
    # An edgeless network maps nothing past the source column.
    for j in range(1, n_max if max_deg else 1):
        A_j, L = running[j], running[j + 1]
        if L:
            # Items that go on: the full column over every edge.
            c, g, p = cand[:L], gather[:L], pad[:L]
            # max(T_prev(u), compute(v), trans(u, v)) on every edge;
            # mode="clip" keeps NumPy from buffering out= (indices are valid).
            values[j - 1, :L].take(staged.edge_u, axis=1, out=c, mode="clip")
            compute[j - 1, :L].take(staged.edge_v, axis=1, out=g, mode="clip")
            np.maximum(c, g, out=c)
            np.maximum(c, trans[j - 1, :L], out=c)
            # Visited-path guard: u -> v is forbidden when v already lies on
            # u's partial path (node reuse is not allowed in this variant).
            vis = visited[:L]
            vis.reshape(L, k * k).take(edge_uv, axis=1, out=guard[:L],
                                       mode="clip")
            np.putmask(c, guard[:L], np.inf)
            # Per-node minimum over the padded-slot layout; slots are
            # ordered by ascending u, so the first minimal slot is the
            # lowest predecessor index (the scalar solver's tie-break), and
            # the minimum is gathered back from the winning slot.
            p[:, staged.flat_slot] = c
            np.argmin(p.reshape(L, k, max_deg), axis=2, out=arg[:L])
            np.add(arg[:L], staged.row_base[None, :], out=arg[:L])
            staged.slot_to_u_flat.take(arg[:L], out=pred[j, :L], mode="clip")
            np.add(arg[:L], pad_offset[:L], out=flat[:L])
            p.take(flat[:L], out=values[j, :L], mode="clip")
            # Row v of item a's new guard is row pred[a, v] of its old one:
            # one contiguous row gather over the (L * k, k) stack.  Rows of
            # unreachable cells are never read: their candidates are inf.
            np.add(pred[j, :L], row_offset[:L], out=flat[:L])
            vis.reshape(L * k, k).take(flat[:L].ravel(), axis=0,
                                       out=spare[:L].reshape(L * k, k),
                                       mode="clip")
            spare[:L].reshape(L, k * k)[:, ::k + 1] = True
            visited, spare = spare, visited
        if L < A_j:
            # Items whose last column this is: destination in-edges only.
            last = slice(L, A_j)
            rows = arange_A[last]
            c = np.take_along_axis(values[j - 1, last], dst_u[last], axis=1)
            np.maximum(c, compute[j - 1, rows, dst[last]][:, None], out=c)
            np.maximum(c, np.take_along_axis(trans[j - 1, last],
                                             dst_edge[last], axis=1), out=c)
            c[dst_blocked[last]] = np.inf
            best = np.argmin(c, axis=1)[:, None]
            values[j, rows, dst[last]] = np.take_along_axis(c, best, 1)[:, 0]
            pred[j, rows, dst[last]] = np.take_along_axis(dst_u[last], best,
                                                          1)[:, 0]
    # Unreachable cells carry pred = -1, normalised once after the sweep.
    pred[~np.isfinite(values)] = -1
    inverse = np.argsort(order)
    return (values.transpose(1, 0, 2)[inverse],
            pred.transpose(1, 0, 2)[inverse])


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
                 *, include_link_delay: bool, keep_table: bool) -> List[BatchEntry]:
    """Both ``*_many`` functions: feasibility, one stage sweep, backtracks."""
    start = time.perf_counter()
    framerate = objective is Objective.MAX_FRAME_RATE
    pipelines = list(pipelines)
    B = len(pipelines)
    requests = _broadcast_requests(requests, B)
    results: List[Optional[BatchEntry]] = [None] * B
    if B == 0:
        return []
    view = network.dense_view()
    alive = _batched_feasibility(pipelines, network, requests, results,
                                 framerate=framerate, view=view)
    if not alive:
        return results  # type: ignore[return-value]

    A = len(alive)
    n_arr = np.array([pipelines[i].n_modules for i in alive])
    src = np.array([view.index_of[requests[i].source] for i in alive])
    dst_cols = [view.index_of[requests[i].destination] for i in alive]
    dst = np.array(dst_cols)
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
    finite_cells = np.isfinite(values).sum(axis=(1, 2)).tolist()
    best = values[np.arange(A), n_arr - 1, dst].tolist()
    rows = []
    for a, value in enumerate(best):
        if math.isfinite(value):
            rows.append(a)
        else:
            results[alive[a]] = _no_mapping_error(
                "ELPC-tensor", objective, requests[alive[a]], int(n_arr[a]))
    per_item_runtime = (time.perf_counter() - start) / A
    value_key = "dp_bottleneck_ms" if framerate else "dp_value_ms"
    mappings = _assemble(
        view, network, objective, "elpc-tensor",
        [pipelines[alive[a]] for a in rows], pred, rows,
        [dst_cols[a] for a in rows],
        [{value_key: best[a], "dp_finite_cells": finite_cells[a],
          "include_link_delay": include_link_delay, "tensor_batch": B}
         for a in rows], runtime_s=per_item_runtime)
    for a, mapping in zip(rows, mappings):
        if keep_table:
            n = int(n_arr[a])
            mapping.extras["dp_table"] = _as_dp_table(
                view, values[a, :n], pred[a, :n],
                None if same is None else same[a, :n])
        results[alive[a]] = mapping
    return results  # type: ignore[return-value]


def elpc_min_delay_many(pipelines: Sequence[Pipeline],
                        network: TransportNetwork,
                        requests: Union[EndToEndRequest, Sequence[EndToEndRequest]],
                        *, include_link_delay: bool = True,
                        keep_table: bool = False) -> List[BatchEntry]:
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
                        keep_table=keep_table)


def elpc_max_frame_rate_many(pipelines: Sequence[Pipeline],
                             network: TransportNetwork,
                             requests: Union[EndToEndRequest, Sequence[EndToEndRequest]],
                             *, include_link_delay: bool = True,
                             keep_table: bool = False) -> List[BatchEntry]:
    """Batched maximum-frame-rate heuristic for many pipelines over one network.

    The batched counterpart of
    :func:`repro.core.elpc_framerate.elpc_max_frame_rate`: one stage sweep
    on recycled buffers over the CSR edge layout, with a ``(B, k, k)``
    visited-path guard and per-item destination rules (pipelines of
    different lengths reach their last column at different stages).
    Values, feasibility outcomes, error messages and backtracked assignments
    are bit-identical to the scalar heuristic.  Like it, items pass only the
    linear checks of :func:`~repro.model.validation.check_framerate_instance`
    first; an item with no simple path of exactly ``n`` nodes (NP-complete
    to decide up front) gets the DP's own :class:`InfeasibleMappingError`.

    See :func:`elpc_min_delay_many` for parameters and batch semantics.
    """
    return _solve_batch(Objective.MAX_FRAME_RATE, pipelines, network,
                        requests, include_link_delay=include_link_delay,
                        keep_table=keep_table)


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
