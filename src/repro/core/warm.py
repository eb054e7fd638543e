"""Warm-started ELPC re-solves over incrementally patched dense views.

When a :class:`~repro.model.network.TransportNetwork` drifts through *scalar*
edits (``set_processing_power`` / ``set_bandwidth`` / ``set_link_delay``), its
dense view is patched copy-on-write and the edits are journaled as
:class:`~repro.model.network.ViewDelta` entries (see ``model/network.py``).
This module exploits that journal: a solve captures its filled DP tables into
a :class:`WarmState`, and a later re-solve on the drifted network asks
:meth:`TransportNetwork.delta_since` which rows actually moved and recomputes
**only the DP cells the edits can reach** instead of the full sweep.

The dirty-cell argument for the min-delay DP: cell ``v`` of stage ``j``
depends only on ``compute[v]`` (so a power edit at ``v`` dirties it), on the
transport times of ``v``'s incoming edges (so a bandwidth/delay edit on a
link incident to ``v`` dirties it), and on the stage ``j-1`` values of ``v``
and of ``v``'s *neighbours*.  Outside the edited (``static``) rows, a cell
can only move if its own previous value moved, if the predecessor it
picked moved, or if some neighbour's value fell to at most the cell's value
— a neighbour whose value rose cannot displace the first minimum.  Every
cell outside that candidate set is provably bit-identical to a cold solve.
The candidate cells of every pipeline in a batch are recomputed together on
the tensor engine's padded-slot edge layout (:mod:`repro.core.tensor`), with
the cold stage sweep's exact element-wise operations and lowest-predecessor
tie-break — so the warm tables equal the cold tables bit for bit (pinned by
``tests/test_warm_equivalence.py``).

The frame-rate heuristic does not admit selective recomputation: its
``visited`` path guard is a ``(k, k)`` matrix that permutes *globally* with
every stage (``visited = visited[best_u]``), so any value change anywhere can
reshuffle every later column.  Frame-rate warm solves therefore reuse the
cached mapping verbatim when the view is unchanged and otherwise re-run the
full tensor stage sweep on the patched view (batched over the re-solved
pipelines, without the feasibility validation) — correct, just not
sub-linear.

State is handed over per flush.  A flush keeps its tables once, stage-major,
in a :class:`FlushTables`; each :class:`WarmState` it captures holds that
handle and its column, and exposes ``values`` / ``pred`` / ``same`` as
``(n, k)`` views into it.  The next warm flush orders its priors by source
flush and copies each source in with one gather per table.  Mappings come
out of :func:`repro.core.tensor._assemble`, shared with the cold tensor
flushes: it backtracks every item, checks every hop of every path against
the view's CSR edges in one array pass (raising ``SpecificationError`` on a
non-walk), and only then builds the mappings without the per-mapping
re-validation of the public constructor.

Warm solves are tagged ``algorithm="elpc-warm"``; their mapped assignments,
objective values and DP tables are bit-identical to ``elpc`` /
``elpc-tensor`` cold solves of the drifted network, which is what lets
:func:`repro.core.batch.solve_many` substitute them freely on its
``prior=``-driven re-solve path.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ReproError, SpecificationError
from ..model.link import BITS_PER_BYTE
from ..model.network import (DenseNetworkView, EndToEndRequest,
                             TransportNetwork, ViewDelta)
from ..model.pipeline import Pipeline
from .mapping import Objective, PipelineMapping
from .tensor import (BatchEntry, StagedView, _as_dp_table, _assemble,
                     _batched_feasibility, _framerate_stages,
                     _min_delay_stages, _no_mapping_error, _stage_arrays,
                     stage_view)

__all__ = ["WarmState", "elpc_min_delay_warm", "elpc_max_frame_rate_warm"]


@dataclass(frozen=True)
class FlushTables:
    """The DP tables of one flush, shared by every state it captured.

    Stage-major: ``values[j, a, v]`` is the flush's item ``a`` at module
    stage ``j`` and node column ``v``.  The arrays may be wider than the
    view's ``k`` columns (the warm engine keeps a sentinel column per item)
    or transposed views of an item-major sweep; readers take
    ``[:n, a, :k]``.  Cells past an item's own length are ``inf`` / ``-1`` /
    ``False``.  ``same`` is ``None`` for the frame-rate DP.
    """

    values: np.ndarray
    pred: np.ndarray
    same: Optional[np.ndarray]


@dataclass
class WarmState:
    """Captured solve state a later warm re-solve can start from.

    Holds the dense view the DP tables were filled against (its ``epoch``
    anchors :meth:`TransportNetwork.delta_since`), the finished mapping so
    an *unchanged* network costs nothing at all, and a handle on the tables:
    the :class:`FlushTables` of the flush that solved the item and the
    item's ``column`` in them.  A later warm flush copies all the priors
    that share a source flush in one gather per table.  The arrays are the
    solver's own working copies — treat them as frozen.
    """

    objective: Objective
    include_link_delay: bool
    view: DenseNetworkView
    src: int
    dst: int
    mapping: PipelineMapping = field(repr=False)
    tables: FlushTables = field(repr=False)
    column: int

    @property
    def epoch(self) -> int:
        """The view epoch the tables are valid for."""
        return self.view.epoch

    def _table(self, table: np.ndarray) -> np.ndarray:
        return table[:self.mapping.pipeline.n_modules, self.column,
                     :self.view.n_nodes]

    @property
    def values(self) -> np.ndarray:
        """``(n, k)`` view of the item's DP values."""
        return self._table(self.tables.values)

    @property
    def pred(self) -> np.ndarray:
        """``(n, k)`` view of the item's predecessor columns (-1: none)."""
        return self._table(self.tables.pred)

    @property
    def same(self) -> Optional[np.ndarray]:
        """``(n, k)`` same-node flags; ``None`` for the frame-rate DP."""
        if self.tables.same is None:
            return None
        return self._table(self.tables.same)


def _check_prior(prior: WarmState, objective: Objective,
                 include_link_delay: bool) -> None:
    if prior.objective is not objective:
        raise SpecificationError(
            f"warm state was captured for objective {prior.objective!r}, "
            f"cannot warm-start a {objective!r} solve from it")
    if prior.include_link_delay != include_link_delay:
        raise SpecificationError(
            "warm state was captured with include_link_delay="
            f"{prior.include_link_delay}, cannot warm-start a solve with "
            f"include_link_delay={include_link_delay}")


def _static_rows(delta: ViewDelta, k: int) -> np.ndarray:
    """Boolean mask of rows whose compute or incident transport edge moved."""
    static = np.zeros(k, dtype=bool)
    for row in delta.node_rows:
        static[row] = True
    for i, j in delta.link_cells:
        static[i] = True
        static[j] = True
    return static


def _warm_min_delay_stages(staged: StagedView, n_arr: np.ndarray,
                           workload: np.ndarray, message: np.ndarray,
                           priors: Sequence[WarmState], static: np.ndarray,
                           *, include_link_delay: bool) -> FlushTables:
    """Refresh min-delay DP tables, recomputing only the cells edits reach.

    ``priors`` are the items' captured states and ``static`` their
    ``(A, k)`` edited-row masks.  Each stage gathers the candidate
    ``(item, column)`` cells and their padded in-edge slots and runs
    :func:`_min_delay_stages`' operations on them in the same order, so the
    refreshed tables are bit-identical to a cold sweep over the patched
    view.  Returns the fresh stage-major tables, ``(n_max, A, k + 1)`` with
    a sentinel column per item; the priors are left untouched.
    """
    A, k = len(priors), staged.k
    K = k + 1  # each item's k columns, then one sentinel cell
    n_max = int(n_arr.max())
    # Padding slots name column k, the item's sentinel cell (inf value, -1
    # predecessor, never a candidate), so no gather needs a mask pass; their
    # finite stand-in attributes (the sentinel edge) keep every padding cost
    # at inf.
    slot_u = staged.slot_u
    slot_bw = np.append(staged.edge_bandwidth_bits_per_s,
                        1.0)[staged.slot_edge]
    slot_delay = np.append(staged.edge_link_delay, 0.0)[staged.slot_edge]
    power_ms = np.append(staged.power_ms, 1.0)
    message_bits = message * BITS_PER_BYTE

    def transport(j: int, item: np.ndarray, col: np.ndarray) -> np.ndarray:
        """(m·8/b)·10³ + d over ``col``'s slots: the cold sweep's chain."""
        times = message_bits[j, item][:, None] / slot_bw.take(col, axis=0)
        times *= 1e3
        if include_link_delay:
            times += slot_delay.take(col, axis=0)
        return times

    # Stage-major copies of the prior tables: row j holds every item's
    # stage-j cells side by side, then its sentinel.  Each run of priors
    # captured by one flush comes in with one gather per table (the caller
    # orders the priors by source flush, so a flush is one run); rows past a
    # source's end are padding, as are its own rows past each item's end.
    tables = FlushTables(np.empty((n_max, A, K)),
                         np.empty((n_max, A, K), dtype=np.int64),
                         np.empty((n_max, A, K), dtype=bool))
    sources = [prior.tables for prior in priors]
    columns = [prior.column for prior in priors]
    cuts = [0] + [a for a in range(1, A)
                  if sources[a] is not sources[a - 1]] + [A]
    for lo, hi in zip(cuts, cuts[1:]):
        source = sources[lo]
        rows = min(n_max, source.values.shape[0])
        taken = np.array(columns[lo:hi])
        for table, pad, copied in ((tables.values, np.inf, source.values),
                                   (tables.pred, -1, source.pred),
                                   (tables.same, False, source.same)):
            width = min(K, copied.shape[2])
            table[:rows, lo:hi, :width] = copied[:rows, :, :width].take(
                taken, axis=1)
            table[rows:, lo:hi] = pad
    for table, pad in ((tables.values, np.inf), (tables.pred, -1),
                       (tables.same, False)):
        table[:, :, k] = pad
    values = tables.values.reshape(n_max, A * K)
    pred = tables.pred.reshape(n_max, A * K)
    same = tables.same.reshape(n_max, A * K)
    edited = np.zeros((A, K), dtype=bool)
    edited[:, :k] = static
    edited = edited.ravel()
    item_base = np.repeat(np.arange(A) * K, K)
    cand = np.empty(A * K, dtype=bool)
    moved = np.zeros(A * K, dtype=bool)
    n_min = int(n_arr.min())
    # Stage-0 values (0 at src, inf elsewhere) depend on no edited quantity.
    dirty = fallen = np.empty(0, dtype=np.intp)

    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(1, n_max):
            prev = values[j - 1]
            np.copyto(cand, edited)
            if dirty.size:
                # Beyond the edited rows, a cell's result can move only if
                # its own previous value moved, if its winning predecessor's
                # value moved, or if a neighbour's value fell to at most what
                # the cell holds; a rise elsewhere leaves the first minimum
                # where it was.  A -1 predecessor reads a sentinel.
                cand[dirty] = True
                moved[dirty] = True
                cand |= moved.take(pred[j] + item_base)
                moved[dirty] = False
                if fallen.size:
                    # Links are undirected: a column's in-edge slots list the
                    # columns it feeds, at the same transport cost.
                    f_item, f_col = np.divmod(fallen, K)
                    feeds = slot_u.take(f_col, axis=0)
                    fed = (fallen - f_col)[:, None] + feeds
                    via = transport(j, f_item, f_col)
                    via += (prev[fallen][:, None]
                            + workload[j, f_item][:, None]
                            / power_ms.take(feeds))
                    # Column k is item 0's sentinel, cleared just below.
                    cand[np.where(via > values[j].take(fed), k, fed)] = True
                cand.reshape(A, K)[:, k] = False
            if j >= n_min:
                cand.reshape(A, K)[n_arr <= j] = False
            cells = np.flatnonzero(cand)
            if cells.size == 0:
                dirty = fallen = cells
                continue
            item, col = np.divmod(cells, K)
            slots_u = slot_u.take(col, axis=0)
            compute = workload[j, item] / power_ms[col]
            # (T_prev(u) + compute(v)) + trans(u, v), as the cold sweep sums.
            cost = transport(j, item, col)
            cost += (prev.take((cells - col)[:, None] + slots_u)
                     + compute[:, None])
            # Slots ascend in u, so the first minimum is the lowest id.
            arg = np.argmin(cost, axis=1)
            rows = np.arange(cells.size)
            cross_best = cost[rows, arg]
            stay = prev[cells] + compute
            take_cross = cross_best < stay
            new_vals = np.where(take_cross, cross_best, stay)
            # Unreachable cells carry pred = -1 / same = False.
            reachable = np.isfinite(new_vals)
            new_pred = np.where(reachable, np.where(
                take_cross, slots_u[rows, arg], col), -1)
            new_same = reachable > take_cross
            # Value changes (inf -> inf compares equal) are what propagates:
            # a downstream column reads only the previous stage's *values*.
            old_vals = values[j, cells]
            dirty = cells[new_vals != old_vals]
            fallen = cells[~(new_vals >= old_vals)]
            values[j, cells] = new_vals
            pred[j, cells] = new_pred
            same[j, cells] = new_same

    return tables


def _warm_many(objective: Objective, pipelines: Sequence[Pipeline],
               network: TransportNetwork,
               requests: Sequence[EndToEndRequest],
               priors: Sequence[Optional[WarmState]], *,
               include_link_delay: bool = True, keep_table: bool = False
               ) -> List[Tuple[BatchEntry, Optional[WarmState]]]:
    """Warm-start a batch of pipelines over one network.

    Per item: reuse the prior verbatim (bit-unchanged view), recompute the
    dirty min-delay cells, refill a frame-rate item without validation
    (scalar drift), or validate and cold-solve (no usable prior).  Each kind
    runs as one batched pass.  Returns ``(entry, state)`` per item, where
    ``entry`` is the mapping or the error a cold solve would raise (then
    ``state`` is ``None``); a reused item returns its prior state object.
    """
    start = time.perf_counter()
    framerate = objective is Objective.MAX_FRAME_RATE
    view = network.dense_view()
    k = view.n_nodes
    out: List[Optional[Tuple[BatchEntry, Optional[WarmState]]]] = \
        [None] * len(pipelines)
    deltas: Dict[int, Optional[ViewDelta]] = {}
    # Edited-row masks, one per prior epoch: static_row_of[epoch] is the
    # epoch's row in static_rows.
    static_rows: List[np.ndarray] = []
    static_row_of: Dict[int, int] = {}
    warm: List[int] = []
    refill: List[int] = []
    fresh: List[int] = []
    for i, (pipeline, request, prior) in enumerate(
            zip(pipelines, requests, priors)):
        if prior is None:
            fresh.append(i)
            continue
        try:
            _check_prior(prior, objective, include_link_delay)
        except ReproError as exc:
            out[i] = (exc, None)
            continue
        epoch = prior.view.epoch
        if epoch not in deltas:
            deltas[epoch] = network.delta_since(epoch)
        delta = deltas[epoch]
        # The captured tables only transfer to the same problem: a usable
        # delta certifies the *view* lineage, the rest is checked
        # explicitly (the same pipeline also means the same table height).
        # An empty delta additionally requires the identical view object —
        # a foreign prior at a coincidentally equal epoch must cold-solve.
        if not (delta is not None
                and view.index_of.get(request.source) == prior.src
                and view.index_of.get(request.destination) == prior.dst
                and prior.view.n_nodes == k
                and prior.mapping.pipeline == pipeline
                and (not delta.is_empty or view is prior.view)):
            fresh.append(i)
        elif delta.is_empty:
            # Nothing moved: the cached solve is still exact.
            out[i] = (prior.mapping, prior)
        elif framerate:
            refill.append(i)
        else:
            if epoch not in static_row_of:
                static_row_of[epoch] = len(static_rows)
                static_rows.append(_static_rows(delta, k))
            warm.append(i)

    # Validation runs on cold fills only: scalar edits cannot change the
    # adjacency-only feasibility report.
    if fresh:
        verdicts: List[Optional[BatchEntry]] = [None] * len(fresh)
        alive = _batched_feasibility(
            [pipelines[i] for i in fresh], network,
            [requests[i] for i in fresh], verdicts, framerate=framerate,
            view=view)
        for position, verdict in enumerate(verdicts):
            if verdict is not None:
                out[fresh[position]] = (verdict, None)
        fresh = [fresh[position] for position in alive]

    # One stage sweep over every cold or refilled item, one warm sweep over
    # every selectively recomputed one: (indices, warm flags, tables).
    passes = []
    swept = fresh + refill
    staged = stage_view(view) if swept or warm else None
    if swept:
        n_arr = np.array([pipelines[i].n_modules for i in swept])
        src = np.array([view.index_of[requests[i].source] for i in swept])
        workload, message = _stage_arrays(pipelines, swept, int(n_arr.max()))
        same = None
        if framerate:
            dst = np.array([view.index_of[requests[i].destination]
                            for i in swept])
            values, pred = _framerate_stages(
                staged, len(swept), n_arr, src, dst, workload, message,
                include_link_delay=include_link_delay)
        else:
            values, pred, same = _min_delay_stages(
                staged, len(swept), n_arr, src, workload, message,
                include_link_delay=include_link_delay)
        # The sweeps are item-major; the handle is stage-major views.
        passes.append((swept, [False] * len(fresh) + [True] * len(refill),
                       FlushTables(values.transpose(1, 0, 2),
                                   pred.transpose(1, 0, 2),
                                   None if same is None
                                   else same.transpose(1, 0, 2))))
    if warm:
        # Priors of one source flush side by side: one gather per source.
        warm.sort(key=lambda i: id(priors[i].tables))
        n_arr = np.array([pipelines[i].n_modules for i in warm])
        workload, message = _stage_arrays(pipelines, warm, int(n_arr.max()))
        # One mask per prior epoch, gathered per item in one indexing op.
        static = np.array(static_rows)[
            [static_row_of[priors[i].view.epoch] for i in warm]]
        tables = _warm_min_delay_stages(
            staged, n_arr, workload, message, [priors[i] for i in warm],
            static, include_link_delay=include_link_delay)
        passes.append((warm, [True] * len(warm), tables))

    solved = sum(len(indices) for indices, *_ in passes)
    per_item_runtime = (time.perf_counter() - start) / max(solved, 1)
    value_key = "dp_bottleneck_ms" if framerate else "dp_value_ms"
    for indices, warm_flags, tables in passes:
        # Cells past an item's own length (and sentinel cells) stay inf, so
        # whole-column sums count exactly the item's finite cells.
        finite_cells = np.isfinite(tables.values).sum(axis=(0, 2)).tolist()
        dst = [view.index_of[requests[i].destination] for i in indices]
        best = tables.values[
            [pipelines[i].n_modules - 1 for i in indices],
            np.arange(len(indices)), dst].tolist()
        rows = []
        for a, value in enumerate(best):
            if math.isfinite(value):
                rows.append(a)
            else:
                i = indices[a]
                out[i] = (_no_mapping_error("ELPC-warm", objective,
                                            requests[i],
                                            pipelines[i].n_modules), None)
        mappings = _assemble(
            view, network, objective, "elpc-warm",
            [pipelines[indices[a]] for a in rows],
            tables.pred.transpose(1, 0, 2), rows, [dst[a] for a in rows],
            [{value_key: best[a], "dp_finite_cells": finite_cells[a],
              "include_link_delay": include_link_delay,
              "warm": warm_flags[a], "view_epoch": view.epoch}
             for a in rows], runtime_s=per_item_runtime)
        for a, mapping in zip(rows, mappings):
            i = indices[a]
            state = WarmState(
                objective=objective, include_link_delay=include_link_delay,
                view=view, src=view.index_of[requests[i].source], dst=dst[a],
                mapping=mapping, tables=tables, column=a)
            if keep_table:
                mapping.extras["dp_table"] = _as_dp_table(
                    view, state.values, state.pred, state.same)
            out[i] = (mapping, state)
    return out  # type: ignore[return-value]


def _warm_one(objective: Objective, pipeline: Pipeline,
              network: TransportNetwork, request: EndToEndRequest,
              prior: Optional[WarmState], **kwargs
              ) -> Tuple[PipelineMapping, WarmState]:
    [(entry, state)] = _warm_many(objective, [pipeline], network, [request],
                                  [prior], **kwargs)
    if isinstance(entry, ReproError):
        raise entry
    return entry, state


def elpc_min_delay_warm(pipeline: Pipeline, network: TransportNetwork,
                        request: EndToEndRequest, *,
                        prior: Optional[WarmState] = None,
                        include_link_delay: bool = True,
                        keep_table: bool = False
                        ) -> Tuple[PipelineMapping, WarmState]:
    """Min-delay solve that starts from (and refreshes) a :class:`WarmState`.

    With no usable ``prior`` (first solve, structural edit, journal trimmed)
    this is a cold :func:`~repro.core.tensor.elpc_min_delay_tensor`-identical
    solve that additionally captures its tables.  With a usable prior it
    recomputes only the cells the journaled scalar edits can affect — the
    returned mapping and tables are bit-identical to the cold path either
    way.  Returns ``(mapping, state)``; pass ``state`` back as ``prior=`` on
    the next drift.  :func:`repro.core.batch.solve_many` runs whole batches
    through the same engine (``warm_start=`` / ``prior=``).
    """
    return _warm_one(Objective.MIN_DELAY, pipeline, network, request, prior,
                     include_link_delay=include_link_delay,
                     keep_table=keep_table)


def elpc_max_frame_rate_warm(pipeline: Pipeline, network: TransportNetwork,
                             request: EndToEndRequest, *,
                             prior: Optional[WarmState] = None,
                             include_link_delay: bool = True,
                             keep_table: bool = False
                             ) -> Tuple[PipelineMapping, WarmState]:
    """Frame-rate solve with warm-state capture and unchanged-view reuse.

    The visited-path guard makes selective column recomputation unsound (see
    the module docstring), so "warm" here means: reuse the cached mapping
    when the delta is empty, otherwise refill the tables on the patched view
    without re-running the adjacency-only feasibility validation.  Output is
    bit-identical to a cold ``elpc-tensor`` solve in all cases.
    """
    return _warm_one(Objective.MAX_FRAME_RATE, pipeline, network, request,
                     prior, include_link_delay=include_link_delay,
                     keep_table=keep_table)
