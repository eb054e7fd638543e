"""Batch solving API: run one solver over many problem instances.

Experiment sweeps (the Fig. 2 / Fig. 5 / Fig. 6 campaigns, the runtime-scaling
study, parameter sensitivity scans) all share the same shape: *solve every
instance of a suite with one algorithm and collect objective values, runtimes
and failures*.  :func:`solve_many` is that loop as a first-class API —
sequential by default, optionally fanned out over a process pool — and the
comparison harness (:func:`repro.analysis.comparison.run_comparison`) and the
CLI (``repro solve --batch-seeds``, ``repro bench-scaling``) are built on it.

Failures are recorded per item instead of aborting the batch, the same policy
the comparison harness has always used: one pathological case must not kill a
whole campaign.  That covers *unexpected* exceptions too (say, a NumPy error
out of a malformed network): the item records the exception's class name,
message and formatted traceback (:attr:`BatchItemResult.traceback`) and the
rest of the batch proceeds — in pool mode this also keeps unpicklable
exception objects from tearing down the whole pool, since only strings cross
the process boundary.

Tensor dispatch
---------------
When the batch is solved with ``solver="elpc-tensor"``, :func:`solve_many`
groups instances sharing one :class:`TransportNetwork` *object* and hands
each group to the batched tensor engine (:mod:`repro.core.tensor`) in a
single call, which advances all of the group's DP columns together.
Heterogeneous batches — every instance on its own network — degenerate to
per-instance solves through the same code path, so results are always
identical to a per-item loop; only the throughput changes.  The grouping
composes with ``workers > 1``: each worker chunk is dispatched through the
same group solver, so a parallel tensor batch runs ``workers`` tensor engines
side by side instead of silently falling back to per-item scalar solves.
Items solved in a batched group share a ``group_id`` and report the group's
wall time (:attr:`BatchItemResult.group_wall_s`) next to the uniformly
averaged ``runtime_s``.

See ``docs/ARCHITECTURE.md`` for the engine layer map and the engine
selection guide.

Multiprocessing notes
---------------------
With ``workers > 1`` the batch runs on the shared-memory runtime of
:mod:`repro.core.parallel`: every distinct network is exported **once** into
a :mod:`multiprocessing.shared_memory` block (workers re-wrap the dense-view
arrays zero-copy), and instances travel as lightweight pipeline specs in
chunks rather than one network pickle per solve.  This makes ``workers=N``
pay off even for large batches of *small* instances — the regime the old
per-item-pickling pool lost to its own serialisation costs — while results
stay bit-identical to ``workers=1`` for every solver.  The solver must still
be given *by registry name* (a callable may not survive pickling —
:class:`~repro.exceptions.SpecificationError` is raised up front).  For
repeated batches, keep one :class:`repro.core.parallel.ParallelBatchRunner`
open and pass it as ``runner=``: the worker pool and the exported networks
persist across calls.
"""

from __future__ import annotations

import time
import traceback as _traceback
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..exceptions import ReproError, SpecificationError
from ..model.network import EndToEndRequest, TransportNetwork
from ..model.pipeline import Pipeline
from ..model.serialization import ProblemInstance
from .mapping import Objective, PipelineMapping
from .registry import get_solver

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .parallel import ParallelBatchRunner
    from .warm import WarmState

__all__ = ["BatchItemResult", "BatchRunResult", "SolveOptions", "solve_many",
           "place_many", "uses_tensor_dispatch"]

#: Solver names whose batches are grouped by network and dispatched through
#: the tensor engine (one batched call per group) instead of per-item solves.
TENSOR_SOLVERS = frozenset({"elpc-tensor"})

#: Solver names whose batches may be warm-started (``warm_start=`` /
#: ``prior=``).  The two ELPC engines are bit-identical to each other, so
#: the warm engine (:mod:`repro.core.warm`) can substitute for either.
WARM_SOLVERS = frozenset({"elpc", "elpc-tensor"})

#: Anything solve_many accepts as one problem instance.
InstanceLike = Union[ProblemInstance,
                     Tuple[Pipeline, TransportNetwork, EndToEndRequest]]


@dataclass(frozen=True)
class SolveOptions:
    """One bundle for the batch-dispatch knobs that used to travel as kwargs.

    Every consumer of the five knobs — :func:`solve_many`,
    :func:`place_many`, :class:`repro.service.ServiceConfig` /
    :class:`repro.service.SolveService`, and the CLI helpers — accepts an
    ``options=SolveOptions(...)`` argument.  Every field defaults to ``None``
    meaning *unspecified*: the consumer's own default applies (``solver`` →
    ``"elpc-tensor"``, ``objective`` → :attr:`Objective.MIN_DELAY`, and so on),
    exactly as if the kwarg had not been passed.

    Legacy kwargs remain accepted everywhere and are **merged** with the
    options bundle: a knob set in only one place wins; a knob set in *both*
    places must agree, otherwise :class:`SpecificationError` (a
    :class:`ValueError`) is raised — silent precedence would make the two
    call styles disagree about what actually ran.  ``solver_kwargs`` dicts
    merge key-wise under the same rule.

    The dataclass is frozen so a bundle can be built once and shared across
    calls, threads and services without defensive copying.
    """

    solver: Union[str, Callable[..., PipelineMapping], None] = None
    objective: Optional[Objective] = None
    workers: Optional[int] = None
    runner: Optional["ParallelBatchRunner"] = None
    chunk_size: Optional[int] = None
    solver_kwargs: Optional[Dict[str, object]] = None

    def merged_with(self, *, solver=None, objective=None, workers=None,
                    runner=None, chunk_size=None,
                    solver_kwargs: Optional[Dict[str, object]] = None
                    ) -> "SolveOptions":
        """This bundle merged with legacy kwargs (conflict → ``ValueError``).

        Returns a new :class:`SolveOptions` in which each knob is whichever
        side specified it; a knob specified on both sides must compare equal.
        """
        def pick(name: str, mine, legacy):
            if mine is None:
                return legacy
            if legacy is None:
                return mine
            if mine == legacy:
                return mine
            raise SpecificationError(
                f"conflicting {name!r}: options={mine!r} but the legacy "
                f"keyword argument says {legacy!r} — specify it in one place "
                "(or make them agree)")

        merged_kwargs: Optional[Dict[str, object]]
        if self.solver_kwargs is None:
            merged_kwargs = dict(solver_kwargs) if solver_kwargs else None
        elif not solver_kwargs:
            merged_kwargs = dict(self.solver_kwargs)
        else:
            merged_kwargs = dict(self.solver_kwargs)
            for key, value in solver_kwargs.items():
                if key in merged_kwargs and merged_kwargs[key] != value:
                    raise SpecificationError(
                        f"conflicting solver_kwargs[{key!r}]: options say "
                        f"{merged_kwargs[key]!r} but the legacy keyword "
                        f"argument says {value!r}")
                merged_kwargs[key] = value
        return SolveOptions(
            solver=pick("solver", self.solver, solver),
            objective=pick("objective", self.objective, objective),
            workers=pick("workers", self.workers, workers),
            runner=pick("runner", self.runner, runner),
            chunk_size=pick("chunk_size", self.chunk_size, chunk_size),
            solver_kwargs=merged_kwargs)


def _resolve_options(options: Optional[SolveOptions], *, solver, objective,
                     workers, runner, chunk_size,
                     solver_kwargs: Dict[str, object]) -> SolveOptions:
    """Merge ``options`` with legacy kwargs (either side may be empty)."""
    base = options if options is not None else SolveOptions()
    if not isinstance(base, SolveOptions):
        raise SpecificationError(
            f"options must be a SolveOptions, got {type(base).__name__}")
    return base.merged_with(solver=solver, objective=objective,
                            workers=workers, runner=runner,
                            chunk_size=chunk_size, solver_kwargs=solver_kwargs)


@dataclass(frozen=True)
class BatchItemResult:
    """Outcome of solving one instance of a batch.

    Attributes
    ----------
    index:
        Position of the instance in the input sequence.
    name:
        The instance's label (``ProblemInstance.name``) when it has one.
    mapping:
        The produced mapping, or ``None`` when the solve failed.
    error:
        Failure description when ``mapping`` is ``None`` (infeasibility or a
        solver error), ``None`` otherwise.  Unexpected (non-``ReproError``)
        exceptions are recorded as ``"ClassName: message"``.
    runtime_s:
        Wall-clock time of this solve (including the failure path).  Items
        solved inside a *tensor* same-network group share one engine call, so
        for them this is the group's wall time divided by the group size;
        items of a parallel worker chunk are timed individually and
        ``runtime_s`` is their own solve time.  ``group_wall_s`` carries the
        undivided group/chunk wall time in both cases.
    traceback:
        Formatted traceback string when an *unexpected* exception was
        recorded (``None`` for clean solves and for ordinary
        infeasibility/specification failures).
    group_id:
        Identifier of the batched group (tensor same-network group, or a
        parallel worker chunk) this item was solved in; ``None`` for plain
        per-item solves.  Unique within one :class:`BatchRunResult`.
    group_size:
        Number of items solved together in this item's group (1 for per-item
        solves).
    group_wall_s:
        Wall-clock time of the whole group's solve, ``None`` for per-item
        solves (where ``runtime_s`` already is the undivided wall time).
    """

    index: int
    name: Optional[str]
    mapping: Optional[PipelineMapping]
    error: Optional[str]
    runtime_s: float
    traceback: Optional[str] = None
    group_id: Optional[int] = None
    group_size: int = 1
    group_wall_s: Optional[float] = None

    @property
    def ok(self) -> bool:
        """``True`` when the solve produced a mapping."""
        return self.mapping is not None

    def objective_value(self, objective: Objective) -> Optional[float]:
        """The mapping's objective value (delay or frame rate), ``None`` on failure."""
        if self.mapping is None:
            return None
        return (self.mapping.delay_ms if objective is Objective.MIN_DELAY
                else self.mapping.frame_rate_fps)


@dataclass
class BatchRunResult:
    """All outcomes of one :func:`solve_many` call, in input order.

    Batches run with ``warm_start=True`` (or ``prior=``) additionally carry
    ``warm_states`` — the per-instance captured DP state a follow-up
    ``solve_many(..., prior=result)`` re-solve starts from after the shared
    network drifts — plus the ``warm_reused`` / ``warm_resolved`` split of
    how the batch was actually serviced (reused verbatim because nothing
    relevant changed, vs re-solved warm or cold).
    """

    solver: str
    objective: Objective
    items: List[BatchItemResult] = field(default_factory=list)
    wall_time_s: float = 0.0
    workers: int = 1
    warm_states: Optional[List[Optional["WarmState"]]] = field(
        default=None, repr=False, compare=False)
    warm_reused: int = 0
    warm_resolved: int = 0

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    @property
    def n_solved(self) -> int:
        """Number of instances that produced a mapping."""
        return sum(1 for item in self.items if item.ok)

    @property
    def n_failed(self) -> int:
        """Number of instances that failed (infeasible or errored)."""
        return len(self.items) - self.n_solved

    def mappings(self) -> List[Optional[PipelineMapping]]:
        """Per-instance mappings (``None`` where the solve failed), input order."""
        return [item.mapping for item in self.items]

    def values(self) -> List[Optional[float]]:
        """Per-instance objective values (``None`` where the solve failed)."""
        return [item.objective_value(self.objective) for item in self.items]

    def total_solver_time_s(self) -> float:
        """Sum of per-item solve times (≥ ``wall_time_s`` under parallelism)."""
        return sum(item.runtime_s for item in self.items)

    def group_times(self) -> Dict[int, Tuple[int, float]]:
        """Per-group wall times: ``group_id -> (group_size, wall_s)``.

        Covers items solved in batched groups — tensor same-network groups
        (where ``runtime_s`` is ``wall_s / group_size``) and parallel worker
        chunks (where items are individually timed and ``wall_s`` is the
        chunk's total).  Sequential per-item solves carry no group and are
        not listed — their undivided wall time is their own ``runtime_s``.
        """
        groups: Dict[int, Tuple[int, float]] = {}
        for item in self.items:
            if item.group_id is not None and item.group_wall_s is not None:
                groups[item.group_id] = (item.group_size, item.group_wall_s)
        return groups


def _coerce_instance(index: int, item: InstanceLike) -> ProblemInstance:
    if isinstance(item, ProblemInstance):
        return item
    try:
        pipeline, network, request = item
    except (TypeError, ValueError):
        raise SpecificationError(
            f"batch item {index} is neither a ProblemInstance nor a "
            "(pipeline, network, request) triple") from None
    return ProblemInstance(pipeline=pipeline, network=network, request=request)


def uses_tensor_dispatch(solver: Union[str, Callable[..., PipelineMapping]],
                         objective: Objective) -> bool:
    """``True`` when ``solver`` names the *builtin* tensor engine.

    This is the one dispatch-policy predicate shared by :func:`solve_many`,
    the parallel runtime (per worker chunk) and the service layer
    (:mod:`repro.service`, which uses it to decide whether coalesced requests
    can ride a same-network tensor group).  Group dispatch hands whole
    batches to :mod:`repro.core.tensor` directly, so it must only engage
    while the registry still serves the builtin under that name — a user
    override of ``"elpc-tensor"`` (which the registry guarantees always
    wins) falls back to ordinary per-item solves through the override,
    sequentially and in worker chunks alike.
    """
    if not isinstance(solver, str) or solver.lower() not in TENSOR_SOLVERS:
        return False
    from .tensor import elpc_max_frame_rate_tensor, elpc_min_delay_tensor

    builtin = (elpc_min_delay_tensor if objective is Objective.MIN_DELAY
               else elpc_max_frame_rate_tensor)
    try:
        return get_solver(solver, objective) is builtin
    except ReproError:  # pragma: no cover - unknown names fail fast earlier
        return False


def _describe_unexpected(exc: BaseException) -> Tuple[str, str]:
    """``(error, traceback)`` strings for a non-``ReproError`` exception.

    Only strings are recorded so the description survives any process
    boundary — exception *objects* (which may be unpicklable) never travel.
    """
    return (f"{type(exc).__name__}: {exc}", _traceback.format_exc())


def _solve_one(payload: Tuple[int, ProblemInstance,
                              Union[str, Callable[..., PipelineMapping]],
                              Objective, dict]) -> BatchItemResult:
    """Solve one instance; module-level so process pools can pickle it.

    ``solver`` may be a registry name (the only form that crosses process
    boundaries) or an already-resolved callable (in-process batches).
    Failures never propagate: expected :class:`ReproError` outcomes
    (infeasibility, bad specs) record their message, and unexpected
    exceptions record class name + message + traceback — one pathological
    item must not kill a whole campaign, sequential or pooled.
    """
    index, instance, solver, objective, solver_kwargs = payload
    if isinstance(solver, str):
        solver = get_solver(solver, objective)
    start = time.perf_counter()
    try:
        mapping = solver(instance.pipeline, instance.network, instance.request,
                         **solver_kwargs)
        return BatchItemResult(index=index, name=instance.name, mapping=mapping,
                               error=None, runtime_s=time.perf_counter() - start)
    except ReproError as exc:
        return BatchItemResult(index=index, name=instance.name, mapping=None,
                               error=str(exc), runtime_s=time.perf_counter() - start)
    except Exception as exc:
        error, tb = _describe_unexpected(exc)
        return BatchItemResult(index=index, name=instance.name, mapping=None,
                               error=error, runtime_s=time.perf_counter() - start,
                               traceback=tb)


def _solve_tensor_groups(instances: List[ProblemInstance], objective: Objective,
                         solver_kwargs: dict, *,
                         first_group_id: int = 0) -> List[BatchItemResult]:
    """Solve a batch through the tensor engine, one call per same-network group.

    Instances are grouped by the *identity* of their network object (the
    tensor engine stacks DP columns over one shared dense view); groups keep
    their first-seen order and results are re-scattered into input order.  A
    group of one degenerates to a single-instance tensor solve, which is how
    heterogeneous batches fall back to per-solve behaviour.  Each group's
    items carry the group's id (numbered from ``first_group_id``; the
    parallel runtime offsets it per chunk to keep ids unique across workers),
    size and undivided wall time next to the averaged ``runtime_s``.
    """
    from .tensor import elpc_max_frame_rate_many, elpc_min_delay_many

    many = (elpc_min_delay_many if objective is Objective.MIN_DELAY
            else elpc_max_frame_rate_many)
    groups: dict = {}
    for index, instance in enumerate(instances):
        groups.setdefault(id(instance.network), []).append(index)
    items: List[Optional[BatchItemResult]] = [None] * len(instances)
    for group_id, indices in enumerate(groups.values(), start=first_group_id):
        network = instances[indices[0]].network
        pipelines = [instances[i].pipeline for i in indices]
        requests = [instances[i].request for i in indices]
        start = time.perf_counter()
        error = tb = None
        entries: Sequence = ()
        try:
            entries = many(pipelines, network, requests, **solver_kwargs)
        except ReproError as exc:
            # A group-wide failure (e.g. an empty network) is recorded per
            # item, the same policy _solve_one applies to per-instance errors.
            error = str(exc)
        except Exception as exc:
            error, tb = _describe_unexpected(exc)
        wall = time.perf_counter() - start
        per_item = wall / len(indices)
        if error is not None:
            entries = [None] * len(indices)
        for i, entry in zip(indices, entries):
            if isinstance(entry, PipelineMapping):
                items[i] = BatchItemResult(
                    index=i, name=instances[i].name, mapping=entry,
                    error=None, runtime_s=per_item, group_id=group_id,
                    group_size=len(indices), group_wall_s=wall)
            else:
                items[i] = BatchItemResult(
                    index=i, name=instances[i].name, mapping=None,
                    error=error if entry is None else str(entry),
                    runtime_s=per_item, traceback=tb, group_id=group_id,
                    group_size=len(indices), group_wall_s=wall)
    return items  # type: ignore[return-value]


def _solve_warm(instances: List[ProblemInstance], objective: Objective,
                solver_kwargs: dict, *,
                prior: Optional[BatchRunResult]
                ) -> Tuple[List[BatchItemResult],
                           List[Optional["WarmState"]], int, int]:
    """Solve a batch through the warm engine, reusing a prior run's DP state.

    Instances are matched to ``prior`` positionally (the re-solve contract:
    the same batch, drifted networks) and grouped by network object, one
    batched warm call per group.  Per instance the warm engine decides
    whether to reuse the prior item verbatim (its network is bit-unchanged),
    patch only the dirty DP cells (scalar drift), or cold-solve (first run,
    structural edit, journal gap) — all three produce results bit-identical
    to a cold batch on the current networks.
    """
    from .warm import _warm_many

    prior_states: List[Optional["WarmState"]] = [None] * len(instances)
    if prior is not None:
        if prior.warm_states is None:
            raise SpecificationError(
                "prior= needs a BatchRunResult produced with warm_start=True "
                "(it carries no captured warm states)")
        if len(prior.items) != len(instances):
            raise SpecificationError(
                f"prior batch has {len(prior.items)} items but this batch "
                f"has {len(instances)} — warm re-solves match positionally")
        prior_states = list(prior.warm_states)
    groups: dict = {}
    for index, instance in enumerate(instances):
        groups.setdefault(id(instance.network), []).append(index)
    items: List[Optional[BatchItemResult]] = [None] * len(instances)
    states: List[Optional["WarmState"]] = [None] * len(instances)
    reused = 0
    for indices in groups.values():
        start = time.perf_counter()
        error = tb = None
        solved: Sequence = ()
        try:
            solved = _warm_many(
                objective, [instances[i].pipeline for i in indices],
                instances[indices[0]].network,
                [instances[i].request for i in indices],
                [prior_states[i] for i in indices], **solver_kwargs)
        except ReproError as exc:
            error = str(exc)
        except Exception as exc:
            error, tb = _describe_unexpected(exc)
        per_item = (time.perf_counter() - start) / len(indices)
        if error is not None:
            solved = [(None, None)] * len(indices)
        for i, (entry, state) in zip(indices, solved):
            if state is not None and state is prior_states[i]:
                # Bit-unchanged network: the prior item still answers exactly.
                items[i] = prior.items[i]  # type: ignore[union-attr]
                reused += 1
            elif isinstance(entry, PipelineMapping):
                items[i] = BatchItemResult(
                    index=i, name=instances[i].name, mapping=entry,
                    error=None, runtime_s=per_item)
            else:
                items[i] = BatchItemResult(
                    index=i, name=instances[i].name, mapping=None,
                    error=error if entry is None else str(entry),
                    runtime_s=per_item, traceback=tb)
            states[i] = state
    return items, states, reused, len(instances) - reused  # type: ignore[return-value]


def solve_many(instances: Iterable[InstanceLike], *,
               solver: Union[str, Callable[..., PipelineMapping], None] = None,
               objective: Optional[Objective] = None,
               workers: Optional[int] = None,
               runner: Optional["ParallelBatchRunner"] = None,
               chunk_size: Optional[int] = None,
               options: Optional[SolveOptions] = None,
               prior: Optional[BatchRunResult] = None,
               warm_start: bool = False,
               **solver_kwargs) -> BatchRunResult:
    """Solve every instance of a batch with one solver.

    Parameters
    ----------
    instances:
        :class:`ProblemInstance` objects or ``(pipeline, network, request)``
        triples.
    options:
        A :class:`SolveOptions` bundle carrying any of the knobs below.
        Knobs may come from the bundle, from the legacy keyword arguments,
        or both — a knob specified in both places must agree, otherwise
        :class:`SpecificationError` (a ``ValueError``) is raised.  Leaving
        everything unset means the documented defaults (``solver="elpc-tensor"``,
        ``objective=Objective.MIN_DELAY``).
    solver:
        Registry name (``"elpc-tensor"``, ``"elpc"``,
        ``"greedy"``, ...) or a solver callable.  Multiprocessing requires a
        registry name.  ``"elpc-tensor"`` batches are grouped by network and
        each group is solved by one call of the tensor engine (see the module
        notes) — sequentially and inside every worker chunk alike; every
        other solver is looped per instance.
    objective:
        Which objective's solver to look up and which value
        :meth:`BatchRunResult.values` reports.
    workers:
        ``None``, 0 or 1 solves sequentially in-process; ``N > 1`` fans the
        batch out over the shared-memory worker runtime of
        :mod:`repro.core.parallel` (transient pool, torn down after the
        batch).  Results are bit-identical either way.
    runner:
        An open :class:`repro.core.parallel.ParallelBatchRunner` to run the
        batch on instead of spinning up a transient pool — the persistent
        form of ``workers=N`` (exported networks and worker processes are
        reused across calls).  Overrides ``workers``.
    chunk_size:
        Instances per worker chunk under parallelism (default: batch size /
        (2·workers), so every worker gets about two chunks).
    prior:
        A previous warm-started :class:`BatchRunResult` for the *same batch*
        (matched positionally) whose networks have since drifted.  Instances
        whose network is bit-unchanged reuse their prior item verbatim;
        instances on scalar-drifted networks are warm re-solved from the
        prior DP tables (only dirty columns recomputed); structural drift
        falls back to a cold solve.  All outcomes are bit-identical to a
        cold batch.  Implies ``warm_start=True``.
    warm_start:
        Capture per-instance warm state (:attr:`BatchRunResult.warm_states`)
        so this result can serve as a later call's ``prior=``.  Warm batches
        run in-process (``workers``/``runner`` are rejected) and need one of
        the ELPC engines (:data:`WARM_SOLVERS`).
    solver_kwargs:
        Forwarded to every solve (e.g. ``include_link_delay=False``).

    Returns
    -------
    BatchRunResult
        Per-instance outcomes in input order; failures (infeasible instances,
        solver errors, unexpected exceptions) are recorded as items with
        ``mapping=None`` rather than raised.
    """
    resolved = _resolve_options(options, solver=solver, objective=objective,
                                workers=workers,
                                runner=runner, chunk_size=chunk_size,
                                solver_kwargs=solver_kwargs)
    solver = resolved.solver if resolved.solver is not None else "elpc-tensor"
    objective = (resolved.objective if resolved.objective is not None
                 else Objective.MIN_DELAY)
    workers, runner = resolved.workers, resolved.runner
    chunk_size = resolved.chunk_size
    solver_kwargs = dict(resolved.solver_kwargs or {})

    normalized = [_coerce_instance(i, item) for i, item in enumerate(instances)]
    n_workers = int(workers or 1)
    if n_workers < 0:
        raise SpecificationError(f"workers must be >= 0, got {workers!r}")
    if runner is not None:
        n_workers = runner.workers

    if isinstance(solver, str):
        get_solver(solver, objective)  # fail fast on unknown names
        solver_name = solver
    else:
        if n_workers > 1:
            raise SpecificationError(
                "multiprocessing batches need the solver by registry name "
                "(callables cannot be shipped to worker processes)")
        solver_name = getattr(solver, "__name__", str(solver))

    if warm_start or prior is not None:
        if runner is not None or n_workers > 1:
            raise SpecificationError(
                "warm-started batches run in-process — captured DP state "
                "cannot cross worker processes; drop workers=/runner=")
        if not (isinstance(solver, str) and solver in WARM_SOLVERS):
            raise SpecificationError(
                f"warm_start/prior need an ELPC engine "
                f"({', '.join(sorted(WARM_SOLVERS))}), got {solver_name!r}")
        start = time.perf_counter()
        items, states, reused, resolved = _solve_warm(
            normalized, objective, dict(solver_kwargs), prior=prior)
        return BatchRunResult(solver=solver_name, objective=objective,
                              items=items,
                              wall_time_s=time.perf_counter() - start,
                              workers=1, warm_states=states,
                              warm_reused=reused, warm_resolved=resolved)

    start = time.perf_counter()
    if n_workers > 1 and len(normalized) > 1:
        if runner is not None:
            items = runner.solve(normalized, solver=solver_name,
                                 objective=objective, chunk_size=chunk_size,
                                 **solver_kwargs)
        else:
            from .parallel import ParallelBatchRunner

            with ParallelBatchRunner(workers=n_workers) as transient:
                items = transient.solve(normalized, solver=solver_name,
                                        objective=objective,
                                        chunk_size=chunk_size, **solver_kwargs)
    elif uses_tensor_dispatch(solver, objective) and normalized:
        n_workers = 1
        items = _solve_tensor_groups(normalized, objective, dict(solver_kwargs))
    else:
        n_workers = 1
        payloads = [(i, inst, solver, objective, dict(solver_kwargs))
                    for i, inst in enumerate(normalized)]
        items = [_solve_one(p) for p in payloads]
    return BatchRunResult(solver=solver_name, objective=objective, items=items,
                          wall_time_s=time.perf_counter() - start,
                          workers=n_workers)


def place_many(requests: Iterable, *,
               placer: str = "place-greedy",
               cluster=None,
               engine: Optional[str] = None,
               objective: Optional[Objective] = None,
               demand_fps: float = 1.0,
               node_capacity_factor: float = 1.0,
               link_capacity_factor: float = 1.0,
               options: Optional[SolveOptions] = None,
               prior=None,
               **placer_kwargs):
    """Place a batch of pipelines *jointly* on one capacity-limited cluster.

    The multi-tenant sibling of :func:`solve_many`: where ``solve_many``
    answers "what is each pipeline's best mapping on an uncontended
    network?", ``place_many`` answers "which of these pipelines fit
    *together*, and where?" — every admitted mapping is charged against the
    cluster's per-node compute and per-link bandwidth budgets and rejections
    are recorded per item, never raised.

    Parameters
    ----------
    requests:
        :class:`repro.placement.PlacementRequest` objects,
        :class:`ProblemInstance` objects, or ``(pipeline, network, request)``
        triples — all sharing one :class:`TransportNetwork` *object* (the
        cluster being contended for; :class:`SpecificationError` otherwise).
    placer:
        Registered placement strategy (``"place-greedy"`` sequential packing,
        ``"place-flow"`` joint min-cost max-flow; see
        :func:`repro.placement.available_placers`).
    cluster:
        An existing :class:`repro.placement.ClusterState` to place onto
        (it is mutated — later batches see earlier commits).  ``None`` builds
        a fresh ledger from the shared network with the two capacity factors
        below.
    engine:
        Per-pipeline solver the placer runs on the residual cluster
        (default ``"elpc-tensor"``).
    objective:
        Mapping objective, default :attr:`Objective.MIN_DELAY`.
    demand_fps:
        Default steady-state frame rate for requests that do not carry their
        own (plain instances and triples).
    node_capacity_factor / link_capacity_factor:
        Budget scaling used only when ``cluster`` is ``None`` (see
        :meth:`repro.placement.ClusterState.from_network`).
    options:
        A :class:`SolveOptions` bundle: ``options.solver`` is the placement
        *engine*, ``options.objective`` the objective and
        ``options.solver_kwargs`` extra engine kwargs — merged with the
        legacy keyword arguments under the same conflict-is-an-error rule as
        :func:`solve_many`.  ``workers`` / ``runner`` / ``chunk_size`` are
        not applicable to placement and raise :class:`SpecificationError`
        when set.
    prior:
        A previous :class:`repro.placement.PlacementResult` for the *same
        batch on the same cluster*, used to re-plan after the shared network
        drifts.  When the network is bit-unchanged since the prior placement
        the prior result is returned verbatim; otherwise the prior batch's
        own commitments are released, the ledger is
        :meth:`~repro.placement.ClusterState.rebase`-d onto the patched
        capacities (other tenants' commitments survive the drift), and the
        batch is re-placed on the rebased residual cluster.  Mutually
        exclusive with ``cluster=``.
    placer_kwargs:
        Forwarded to the placer (e.g. ``order="input"`` for
        ``place-greedy``).

    Returns
    -------
    repro.placement.PlacementResult
        Per-request outcomes in input order plus the final ledger.
        ``extras["network_epoch"]`` records the view epoch the placement was
        computed at (what a later ``prior=`` re-plan compares against).
    """
    from ..placement import ClusterState, PlacementRequest
    from ..placement.registry import get_placer

    resolved = _resolve_options(options, solver=engine, objective=objective,
                                workers=None, runner=None,
                                chunk_size=None, solver_kwargs=placer_kwargs)
    for name in ("workers", "runner", "chunk_size"):
        if getattr(resolved, name) is not None:
            raise SpecificationError(
                f"SolveOptions.{name} is not applicable to place_many "
                "(placement runs in-process on one ledger)")
    engine_name = resolved.solver if resolved.solver is not None else "elpc-tensor"
    if not isinstance(engine_name, str):
        raise SpecificationError(
            "place_many needs the engine by registry name (placers look it "
            "up per objective)")
    objective = (resolved.objective if resolved.objective is not None
                 else Objective.MIN_DELAY)
    kwargs = dict(resolved.solver_kwargs or {})

    coerced = [PlacementRequest.coerce(i, item, demand_fps=demand_fps)
               for i, item in enumerate(requests)]
    network = None
    for request in coerced:
        if network is None:
            network = request.instance.network
        elif request.instance.network is not network:
            raise SpecificationError(
                "place_many requests must all share one TransportNetwork "
                "object — joint placement is defined on a single cluster")
    if prior is not None:
        if cluster is not None:
            raise SpecificationError(
                "place_many got both prior= and cluster= — a re-plan always "
                "continues on the prior result's own ledger")
        if network is not None and prior.cluster.network is not network:
            raise SpecificationError(
                "prior= placement was computed on a different "
                "TransportNetwork object than these requests name")
        if network is not None and network.dense_view() is prior.cluster.view:
            # Bit-unchanged cluster: the prior placement still answers.
            return prior
        cluster = prior.cluster
        # The re-plan replaces the prior batch's placements: hand their
        # draws back (other tenants' commitments stay), then rebase the
        # budgets onto the drifted capacities before re-placing.
        live = {id(d) for d in cluster.committed}
        for item in prior.items:
            if item.demand is not None and id(item.demand) in live:
                cluster.release(item.demand)
        cluster.rebase()
    if cluster is None:
        if network is None:
            raise SpecificationError(
                "place_many needs at least one request (or an explicit "
                "cluster=) to know which cluster to place on")
        cluster = ClusterState.from_network(
            network, node_capacity_factor=node_capacity_factor,
            link_capacity_factor=link_capacity_factor)
    elif network is not None and network is not cluster.network:
        raise SpecificationError(
            "place_many requests name a different TransportNetwork object "
            "than the given cluster's")
    result = get_placer(placer)(coerced, cluster, objective=objective,
                                engine=engine_name, **kwargs)
    if network is not None:
        result.extras["network_epoch"] = network.view_epoch
        if prior is not None:
            result.extras["replanned_from_epoch"] = \
                prior.extras.get("network_epoch")
    return result
