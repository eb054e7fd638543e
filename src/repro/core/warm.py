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
from .mapping import Objective, PipelineMapping, mapping_from_assignment
from .tensor import (BatchEntry, StagedView, _as_dp_table, _backtrack,
                     _batched_feasibility, _framerate_stages,
                     _min_delay_stages, _no_mapping_error, _stage_arrays,
                     stage_view)

__all__ = ["WarmState", "elpc_min_delay_warm", "elpc_max_frame_rate_warm"]


@dataclass
class WarmState:
    """Captured solve state a later warm re-solve can start from.

    Holds the dense view the DP tables were filled against (its ``epoch``
    anchors :meth:`TransportNetwork.delta_since`), the filled tables, and the
    finished mapping so an *unchanged* network costs nothing at all.  The
    arrays are the solver's own working copies — treat them as frozen.
    """

    objective: Objective
    include_link_delay: bool
    view: DenseNetworkView
    src: int
    dst: int
    values: np.ndarray
    pred: np.ndarray
    same: Optional[np.ndarray]
    mapping: PipelineMapping = field(repr=False)

    @property
    def epoch(self) -> int:
        """The view epoch the tables are valid for."""
        return self.view.epoch


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
                           *, include_link_delay: bool) -> tuple:
    """Refresh min-delay DP tables, recomputing only the cells edits reach.

    ``priors`` are the items' captured states and ``static`` their
    ``(A, k)`` edited-row masks.  Each stage gathers the candidate
    ``(item, column)`` cells and their padded in-edge slots and runs
    :func:`_min_delay_stages`' operations on them in the same order, so the
    refreshed tables are bit-identical to a cold sweep over the patched
    view.  Returns fresh ``(values, pred, same)`` tables as
    ``(A, n_max, k)`` views; the priors are left untouched.
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
    # stage-j cells side by side.  Only the sentinels and the rows past a
    # short item's end need filling beyond the copies.
    values = np.empty((n_max, A, K))
    pred = np.empty((n_max, A, K), dtype=np.int64)
    same = np.empty((n_max, A, K), dtype=bool)
    for a, prior in enumerate(priors):
        n = prior.values.shape[0]
        values[:n, a, :k] = prior.values
        pred[:n, a, :k] = prior.pred
        same[:n, a, :k] = prior.same
        values[n:, a] = np.inf
        pred[n:, a] = -1
        same[n:, a] = False
    values[:, :, k] = np.inf
    pred[:, :, k] = -1
    same[:, :, k] = False
    values = values.reshape(n_max, A * K)
    pred = pred.reshape(n_max, A * K)
    same = same.reshape(n_max, A * K)
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

    def by_item(table):
        return table.reshape(n_max, A, K)[:, :, :k].transpose(1, 0, 2)

    return by_item(values), by_item(pred), by_item(same)


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
    static_of: Dict[int, np.ndarray] = {}
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
        # explicitly.  An empty delta additionally requires the identical
        # view object — a foreign prior at a coincidentally equal epoch must
        # cold-solve.
        if not (delta is not None
                and view.index_of.get(request.source) == prior.src
                and view.index_of.get(request.destination) == prior.dst
                and prior.values.shape == (pipeline.n_modules, k)
                and prior.mapping.pipeline == pipeline
                and (not delta.is_empty or view is prior.view)):
            fresh.append(i)
        elif delta.is_empty:
            # Nothing moved: the cached solve is still exact.
            out[i] = (prior.mapping, prior)
        elif framerate:
            refill.append(i)
        else:
            if epoch not in static_of:
                static_of[epoch] = _static_rows(delta, k)
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
        if framerate:
            dst = np.array([view.index_of[requests[i].destination]
                            for i in swept])
            tables = _framerate_stages(staged, len(swept), n_arr, src, dst,
                                       workload, message,
                                       include_link_delay=include_link_delay)
            tables = tables + (None,)
        else:
            tables = _min_delay_stages(staged, len(swept), n_arr, src,
                                       workload, message,
                                       include_link_delay=include_link_delay)
        passes.append((swept, [False] * len(fresh) + [True] * len(refill),
                       tables))
    if warm:
        n_arr = np.array([pipelines[i].n_modules for i in warm])
        workload, message = _stage_arrays(pipelines, warm, int(n_arr.max()))
        static = np.stack([static_of[priors[i].view.epoch] for i in warm])
        tables = _warm_min_delay_stages(
            staged, n_arr, workload, message, [priors[i] for i in warm],
            static, include_link_delay=include_link_delay)
        passes.append((warm, [True] * len(warm), tables))

    solved = sum(len(indices) for indices, *_ in passes)
    per_item_runtime = (time.perf_counter() - start) / max(solved, 1)
    for indices, warm_flags, (values, pred, same) in passes:
        # Cells past an item's own length stay inf, so whole-row sums count
        # exactly the item's finite cells.
        finite_cells = np.isfinite(values).sum(axis=(1, 2))
        for a, i in enumerate(indices):
            pipeline, request = pipelines[i], requests[i]
            n = pipeline.n_modules
            src = view.index_of[request.source]
            dst = view.index_of[request.destination]
            best = float(values[a, n - 1, dst])
            if not math.isfinite(best):
                out[i] = (_no_mapping_error("ELPC-warm", objective, request,
                                            n), None)
                continue
            item_values = values[a, :n]
            item_pred = pred[a, :n]
            item_same = None if same is None else same[a, :n]
            mapping = mapping_from_assignment(
                pipeline, network, _backtrack(view, item_pred, dst),
                objective=objective, algorithm="elpc-warm",
                runtime_s=per_item_runtime, allow_reuse=not framerate)
            mapping.extras.update({
                "dp_bottleneck_ms" if framerate else "dp_value_ms": best,
                "dp_finite_cells": int(finite_cells[a]),
                "include_link_delay": include_link_delay,
                "warm": warm_flags[a],
                "view_epoch": view.epoch,
            })
            if keep_table:
                mapping.extras["dp_table"] = _as_dp_table(
                    view, item_values, item_pred, item_same)
            out[i] = (mapping, WarmState(
                objective=objective, include_link_delay=include_link_delay,
                view=view, src=src, dst=dst, values=item_values,
                pred=item_pred, same=item_same, mapping=mapping))
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
