"""Continuous-batching dispatcher: coalesce concurrent solve requests into flushes.

This is the heart of the service layer.  Incoming requests are appended to a
pending queue; a single flusher task drains it in *flushes*.  The default
policy is **continuous batching** (the same idea LLM serving schedulers
use): while a flush is executing on the solve executor, newly arriving
requests simply accumulate, and the moment the executor frees the
accumulated batch is dispatched — capped at ``max_batch`` — with no
wall-clock wait in the hot path.  Under sustained load the engine is never
idle and the batch size adapts to however much traffic arrived during the
previous solve.  ``max_wait_ms`` only matters when the engine is *idle*: the
first request of a burst opens a coalescing window bounded by it (reaching
``max_batch`` still flushes early; ``max_wait_ms=0`` flushes immediately —
the no-coalescing configuration).

Each flush is partitioned by :meth:`SolveRequest.dispatch_key` (solver ×
objective × solver kwargs) and every partition goes through one
:func:`repro.core.batch.solve_many` call, so coalesced same-network requests
ride the tensor engine's group path exactly like an offline batch — the
``group_id``/``group_size`` fields in the responses make the coalescing
observable.  Multi-core serving runs whole services side by side
(``repro serve --replicas N``, :mod:`repro.service.replicas`).

The event loop never blocks on solving: flushes run on a single-thread
executor (one flush at a time), and per-request failures follow the batch API's recorded-error policy —
a client always receives a response, never a dropped connection.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..core.batch import SolveOptions, solve_many
from ..exceptions import ReproError, SpecificationError
from ..placement import ClusterState
from .admission import AdmissionBook
from .wire import (SUPPORTED_SCHEMAS, WIRE_SCHEMA, NetworkInterner,
                   SolveRequest, error_response, item_result_to_wire,
                   occupancy_to_wire)

__all__ = ["ServiceConfig", "SolveService"]


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one :class:`SolveService`.

    Attributes
    ----------
    max_batch:
        Flush as soon as this many requests are pending (also the cap on one
        flush's size).
    max_wait_ms:
        Idle-engine bound: flush at latest this long after the oldest
        pending request arrived; ``0`` disables coalescing (every request
        flushes immediately).  A busy executor replaces the window —
        requests arriving mid-flush dispatch the moment the executor frees.
    default_solver:
        Solver used by requests that do not name one.
    intern_networks:
        Cap of the network interning cache (distinct topologies kept hot).
    max_body_bytes:
        Refuse request bodies larger than this with HTTP 413 instead of
        buffering them (a hostile ``Content-Length`` must not balloon server
        memory).  The default (8 MiB) is far above any realistic instance
        payload.
    options:
        A :class:`repro.SolveOptions` bundle as an alternative spelling of
        the dispatch knob this config shares with the batch API:
        ``options.solver`` ↔ ``default_solver``.  A solver set in both
        places must agree (:class:`SpecificationError` otherwise, matching
        :func:`repro.solve_many`); ``objective`` / ``solver_kwargs`` travel
        per request, have no service-config equivalent and are rejected
        when set.
    admission_control:
        ``True`` runs every *successful* solve through a per-network
        admission ledger (:class:`repro.placement.ClusterState`) before
        responding: the mapping's steady-state demand (at
        ``admission_demand_fps``) is committed against the network's
        remaining node/link budgets, **in priority order within each flush
        partition**, and a mapping that no longer fits is rejected with
        ``ok: false`` and an ``admission`` object instead of being handed
        out oversubscribed.  Commitments persist for the service lifetime
        (tenants hold their capacity); ``/healthz`` reports
        ``admitted_total`` / ``rejected_total``.
    admission_capacity_factor:
        Node/link budget scaling for admission ledgers (see
        :meth:`repro.placement.ClusterState.from_network`).
    admission_demand_fps:
        Frame rate each admitted mapping is assumed to stream at when its
        demand is charged to the ledger.
    """

    max_batch: int = 32
    max_wait_ms: float = 2.0
    default_solver: str = "elpc-tensor"
    intern_networks: int = 256
    max_body_bytes: int = 8 * 1024 * 1024
    options: Optional[SolveOptions] = None
    admission_control: bool = False
    admission_capacity_factor: float = 1.0
    admission_demand_fps: float = 1.0

    def __post_init__(self) -> None:
        if self.options is not None:
            self._merge_options(self.options)
        if self.max_batch < 1:
            raise SpecificationError(
                f"max_batch must be >= 1, got {self.max_batch!r}")
        if self.max_wait_ms < 0:
            raise SpecificationError(
                f"max_wait_ms must be >= 0, got {self.max_wait_ms!r}")
        if self.max_body_bytes < 1024:
            raise SpecificationError(
                f"max_body_bytes must be >= 1024, got {self.max_body_bytes!r}")
        if self.admission_capacity_factor < 0:
            raise SpecificationError(
                f"admission_capacity_factor must be >= 0, got "
                f"{self.admission_capacity_factor!r}")
        if self.admission_demand_fps < 0:
            raise SpecificationError(
                f"admission_demand_fps must be >= 0, got "
                f"{self.admission_demand_fps!r}")

    def _merge_options(self, options: SolveOptions) -> None:
        """Fold an options bundle into this config (conflict → ``ValueError``)."""
        if not isinstance(options, SolveOptions):
            raise SpecificationError(
                f"options must be a SolveOptions, got {type(options).__name__}")
        for name in ("objective", "solver_kwargs"):
            if getattr(options, name) is not None:
                raise SpecificationError(
                    f"SolveOptions.{name} has no ServiceConfig equivalent "
                    "(it travels per request)")
        solver = options.solver
        if solver is None:
            return
        if self.default_solver != "elpc-tensor" and self.default_solver != solver:
            raise SpecificationError(
                f"conflicting 'default_solver': ServiceConfig says "
                f"{self.default_solver!r} but options.solver says "
                f"{solver!r} — specify it in one place")
        if not isinstance(solver, str):
            raise SpecificationError(
                "ServiceConfig needs the default solver by registry name")
        object.__setattr__(self, "default_solver", solver)


#: One queued request: the parsed request, the future its response resolves,
#: and the monotonic arrival time driving the max_wait_ms deadline.
_Pending = Tuple[SolveRequest, "asyncio.Future", float]


class SolveService:
    """Accepts solve requests, coalesces them, dispatches through ``solve_many``.

    Lifecycle: construct, :meth:`start` inside a running event loop,
    :meth:`submit` per request, :meth:`close` to shut down — by default
    *draining* the queue, so every accepted request still receives its
    response.  The HTTP front-end
    (:mod:`repro.service.server`) owns exactly one of these.
    """

    def __init__(self, config: Optional[ServiceConfig] = None, *,
                 options: Optional[SolveOptions] = None,
                 replica_id: int = 0,
                 admission: Optional[Any] = None) -> None:
        self.config = config or ServiceConfig()
        #: Which pre-fork replica this service runs in (0 for a single
        #: process).  Stamped into every response and the healthz payload;
        #: each replica constructs its own SolveService *after* the fork, so
        #: dispatch state — the pending queue, the flush executor and the
        #: network interner — is never shared across replicas.
        self.replica_id = int(replica_id)
        if options is not None:
            # Late options merge: same rules as ServiceConfig(options=...),
            # re-validated by the replacement config's __post_init__.
            import dataclasses

            if (self.config.options is not None
                    and self.config.options != options):
                raise SpecificationError(
                    "SolveService got options= but its ServiceConfig already "
                    "carries a different options bundle")
            self.config = dataclasses.replace(self.config, options=options)
        self.interner = NetworkInterner(max_entries=self.config.intern_networks)
        #: Who owns the admission ledgers: this service's own
        #: :class:`~repro.service.admission.AdmissionBook` by default, or —
        #: in a pre-fork fleet replica — an
        #: :class:`~repro.service.admission.AdmissionPipe` to the one book
        #: the supervisor holds, so N replicas admit exactly what one would.
        #: ``None`` when admission control is off.  Commitments persist for
        #: the service lifetime: an admitted tenant holds its capacity.
        if admission is None and self.config.admission_control:
            admission = AdmissionBook(self.config.admission_capacity_factor)
        self.admission = admission
        self._pending: List[_Pending] = []
        self._wake: Optional[asyncio.Event] = None
        self._flusher: Optional["asyncio.Task"] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._running = False
        self._inflight = 0
        self.requests_total = 0
        self.responses_total = 0
        self.flushes_total = 0
        self.coalesced_flushes_total = 0
        #: Flushes dispatched on the busy-executor path: the executor freed
        #: with requests already pending, so no wall-clock window was waited.
        self.busy_flushes_total = 0
        #: Per-flush batch-size counters (observable continuous-batching
        #: behavior: mean = flushed_requests_total / flushes_total).
        self.flushed_requests_total = 0
        self.flush_size_max = 0
        #: Queue-wait counters: time from a request's arrival to its flush
        #: being dispatched, summed over requests.
        self.queue_wait_s_total = 0.0
        self.queue_wait_s_max = 0.0
        self.admitted_total = 0
        self.rejected_total = 0
        #: Incremental-view state (``POST /delta``): base refs whose interned
        #: network has been patched at least once, the pending delta-applied
        #: marks driving the staleness metric (base ref -> monotonic time of
        #: the latest un-flushed delta), and the counters ``/healthz``
        #: reports.
        self._patched_refs: set = set()
        self._delta_applied: Dict[str, float] = {}
        self.deltas_total = 0
        self.warm_solves_total = 0
        self.staleness_s_total = 0.0
        self.staleness_samples = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Start the flusher task (requires a running event loop)."""
        if self._running:
            return
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-flush")
        self._wake = asyncio.Event()
        self._running = True
        self._flusher = asyncio.create_task(self._flush_loop())

    async def close(self, *, drain: bool = True) -> None:
        """Stop the service; ``drain=True`` answers every pending request first.

        With ``drain=False`` still-queued requests get an ``ok: false``
        shutdown response (recorded, not dropped) and only in-flight flushes
        are awaited.
        """
        if not self._running and self._flusher is None:
            return
        self._running = False
        if not drain:
            for request, future, _arrived in self._pending:
                if not future.done():
                    future.set_result(error_response(
                        "service shutting down before this request was solved",
                        solver=request.solver, objective=request.objective))
            self._pending.clear()
        if self._wake is not None:
            self._wake.set()
        if self._flusher is not None:
            await self._flusher
            self._flusher = None
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    # ------------------------------------------------------------------ #
    # Request entry point
    # ------------------------------------------------------------------ #
    async def submit(self, request: SolveRequest) -> Dict[str, Any]:
        """Queue one request and await its wire-format response."""
        if not self._running:
            return error_response("service is not running",
                                  solver=request.solver,
                                  objective=request.objective)
        loop = asyncio.get_running_loop()
        future: "asyncio.Future" = loop.create_future()
        self._pending.append((request, future, time.monotonic()))
        self.requests_total += 1
        self._wake.set()
        return await future

    async def apply_delta(self, payload: Any) -> Dict[str, Any]:
        """Apply a capacity delta to an interned network (``POST /delta``).

        Payload: ``{"ref": <network_ref>, "edits": [...]}`` (``ref`` may also
        travel as ``{"network": {"ref": ...}}``, mirroring reference-style
        solve requests; versioned ``digest@epoch`` refs are accepted).  Edits
        are the :func:`repro.service.wire.apply_network_edits` scalar kinds —
        ``power`` / ``bandwidth`` / ``delay``.

        The mutation runs on the flush executor, so it is serialised against
        in-flight solves: a flush observes either the pre-delta or the
        post-delta capacities, never a torn edit.  The network object (and
        its digest) survives — subsequent reference-style requests resolve to
        the *patched* network, and their dense views come from the delta
        journal's copy-on-write patch path rather than a rebuild.  When
        admission control holds a ledger for the network, the ledger is
        rebased onto the new capacities and any now-overdrawn budgets are
        reported as ``capacity_violations`` (commitments are kept — tenants
        are not evicted, the operator decides).
        """
        if not isinstance(payload, Mapping):
            raise SpecificationError(
                f"delta request must be a JSON object, got "
                f"{type(payload).__name__}")
        schema = payload.get("schema")
        if schema is not None and schema not in SUPPORTED_SCHEMAS:
            raise SpecificationError(
                f"unsupported wire schema {schema!r}; this server speaks "
                f"{sorted(SUPPORTED_SCHEMAS)}")
        ref = payload.get("ref")
        if ref is None:
            network_payload = payload.get("network")
            if isinstance(network_payload, Mapping):
                ref = network_payload.get("ref")
        if not isinstance(ref, str) or not ref:
            raise SpecificationError(
                "delta request needs a 'ref' string naming an interned "
                "network (the 'network_ref' of a previous solve response)")
        edits = payload.get("edits")
        call = partial(self._apply_delta_sync, ref, edits)
        if self._executor is not None:
            loop = asyncio.get_running_loop()
            network, new_ref, applied, rebased, violations = (
                await loop.run_in_executor(self._executor, call))
        else:  # service not started (direct library use): apply inline
            network, new_ref, applied, rebased, violations = call()
        base = ref.split("@", 1)[0]
        self._patched_refs.add(base)
        self._delta_applied[base] = time.monotonic()
        self.deltas_total += 1
        return {
            "schema": WIRE_SCHEMA,
            "ok": True,
            "network_ref": new_ref,
            "view_epoch": network.view_epoch,
            "edits_applied": applied,
            "delta_patches_total": network.delta_patches_total,
            "rebuilds_total": network.rebuilds_total,
            "ledger_rebased": rebased,
            "capacity_violations": [v.describe() for v in violations],
        }

    def _apply_delta_sync(self, ref: str, edits: Any):
        """Executor-side body of :meth:`apply_delta` (see there)."""
        network, new_ref, applied = self.interner.apply_delta(ref, edits)
        rebased = False
        violations: List[Any] = []
        if self.admission is not None:
            rebased, violations = self.admission.rebase(ref.split("@", 1)[0],
                                                        network)
        return network, new_ref, applied, rebased, violations

    @property
    def queue_depth(self) -> int:
        """Requests accepted but not yet answered (queued + in flight)."""
        return len(self._pending) + self._inflight

    def status(self) -> Dict[str, Any]:
        """The ``/healthz`` payload: queue state + engine config."""
        payload: Dict[str, Any] = {
            "status": "ok" if self._running else "stopped",
            "replica_id": self.replica_id,
            "queue_depth": self.queue_depth,
            "pending": len(self._pending),
            "inflight": self._inflight,
            "requests_total": self.requests_total,
            "responses_total": self.responses_total,
            "flushes_total": self.flushes_total,
            "coalesced_flushes_total": self.coalesced_flushes_total,
            "busy_flushes_total": self.busy_flushes_total,
            "flushed_requests_total": self.flushed_requests_total,
            "mean_flush_size": (self.flushed_requests_total
                                / self.flushes_total
                                if self.flushes_total else 0.0),
            "flush_size_max": self.flush_size_max,
            "queue_wait_ms_mean": (self.queue_wait_s_total * 1e3
                                   / self.flushed_requests_total
                                   if self.flushed_requests_total else 0.0),
            "queue_wait_ms_max": self.queue_wait_s_max * 1e3,
            "max_batch": self.config.max_batch,
            "max_wait_ms": self.config.max_wait_ms,
            "default_solver": self.config.default_solver,
            "interned_networks": len(self.interner),
            "admission_control": self.config.admission_control,
            "admitted_total": self.admitted_total,
            "rejected_total": self.rejected_total,
        }
        # Incremental-view lifecycle counters: epoch/patch/rebuild state is
        # summed over the networks still interned (evicted topologies take
        # their counters with them); staleness is delta-applied -> first
        # subsequent flush answering on that network.
        networks = self.interner.networks()
        payload["view_epoch"] = max(
            (n.view_epoch for n in networks), default=0)
        payload["delta_patches_total"] = sum(
            n.delta_patches_total for n in networks)
        payload["rebuilds_total"] = sum(n.rebuilds_total for n in networks)
        payload["deltas_total"] = self.deltas_total
        payload["warm_solves_total"] = self.warm_solves_total
        payload["staleness_ms_mean"] = (
            self.staleness_s_total * 1e3 / self.staleness_samples
            if self.staleness_samples else 0.0)
        if self.admission is not None:
            occupancy = self.admission.occupancy()
            payload["admission_ledgers"] = int(occupancy["networks"])
            payload["admission_store"] = self.admission.kind
            payload["admission_occupancy"] = occupancy_to_wire(occupancy)
        return payload

    # ------------------------------------------------------------------ #
    # Flush machinery
    # ------------------------------------------------------------------ #
    async def _flush_loop(self) -> None:
        """Single consumer: waits for pending requests, applies the flush
        policy, dispatches batches until closed (and drained).

        Continuous-batching policy: ``executor_busy`` tracks whether the
        previous iteration dispatched a flush.  Requests that arrived while
        that flush was executing are dispatched *immediately* once it
        returns — the executor freeing is the trigger, not a wall-clock
        deadline.  Only an idle engine (queue was empty when the request
        arrived) opens the ``max_wait_ms`` coalescing window.
        """
        executor_busy = False
        while self._running or self._pending:
            if not self._pending:
                executor_busy = False
                self._wake.clear()
                if not self._running:
                    break
                await self._wake.wait()
                continue
            if not executor_busy:
                deadline = self._pending[0][2] + self.config.max_wait_ms / 1e3
                while (self._running
                       and len(self._pending) < self.config.max_batch):
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._wake.clear()
                    try:
                        await asyncio.wait_for(self._wake.wait(),
                                               timeout=remaining)
                    except asyncio.TimeoutError:
                        break
            batch = self._pending[: self.config.max_batch]
            del self._pending[: len(batch)]
            self._record_flush(batch, busy=executor_busy)
            self._inflight += len(batch)
            try:
                await self._dispatch(batch)
            except Exception as exc:
                # _dispatch answers per-request failures itself; anything
                # escaping it is a dispatcher bug — answer the batch and keep
                # the flusher alive rather than wedging the whole service.
                for request, future, _arrived in batch:
                    if not future.done():
                        future.set_result(error_response(
                            f"internal dispatch error: "
                            f"{type(exc).__name__}: {exc}",
                            solver=request.solver,
                            objective=request.objective))
                self.responses_total += len(batch)
            finally:
                self._inflight -= len(batch)
                executor_busy = True

    def _record_flush(self, batch: List[_Pending], *, busy: bool) -> None:
        """Update the per-flush batch-size and queue-wait counters."""
        now = time.monotonic()
        self.flushed_requests_total += len(batch)
        self.flush_size_max = max(self.flush_size_max, len(batch))
        if busy:
            self.busy_flushes_total += 1
        for _request, _future, arrived in batch:
            waited = max(0.0, now - arrived)
            self.queue_wait_s_total += waited
            self.queue_wait_s_max = max(self.queue_wait_s_max, waited)

    async def _dispatch(self, batch: List[_Pending]) -> None:
        """Partition one flush by dispatch key and solve each partition."""
        self.flushes_total += 1
        if len(batch) > 1:
            self.coalesced_flushes_total += 1
        partitions: "Dict[tuple, List[_Pending]]" = {}
        for entry in batch:
            partitions.setdefault(entry[0].dispatch_key(), []).append(entry)
        for entries in partitions.values():
            await self._dispatch_partition(entries)

    async def _dispatch_partition(self, entries: List[_Pending]) -> None:
        head = entries[0][0]
        instances = [request.instance for request, _future, _arrived in entries]
        call = partial(solve_many, instances,
                       solver=head.solver, objective=head.objective,
                       **head.solver_kwargs)
        loop = asyncio.get_running_loop()
        try:
            result = await loop.run_in_executor(self._executor, call)
        except ReproError as exc:
            # A partition-wide rejection (unknown solver name, bad kwargs):
            # recorded per request, never a dropped connection — mirroring
            # solve_many's per-item policy one level up.
            for request, future, _arrived in entries:
                if not future.done():
                    future.set_result(error_response(
                        str(exc), solver=request.solver,
                        objective=request.objective))
            self.responses_total += len(entries)
            return
        except Exception as exc:  # pragma: no cover - defensive last resort
            for request, future, _arrived in entries:
                if not future.done():
                    future.set_result(error_response(
                        f"{type(exc).__name__}: {exc}", solver=request.solver,
                        objective=request.objective))
            self.responses_total += len(entries)
            return
        self._record_incremental(entries)
        if self.admission is not None:
            responses = self._admit(entries, result)
            for (request, future, _arrived), response in zip(entries, responses):
                if not future.done():
                    future.set_result(response)
        else:
            for (request, future, _arrived), item in zip(entries, result.items):
                if not future.done():
                    future.set_result(item_result_to_wire(
                        item, solver=result.solver,
                        objective=result.objective,
                        network_ref=self._response_ref(request)))
        self.responses_total += len(entries)

    def _response_ref(self, request: SolveRequest) -> Optional[str]:
        """The (possibly epoch-versioned) ref echoed on this response."""
        if request.network_ref is None:
            return None
        return self.interner.ref_for(request.network_ref,
                                     request.instance.network)

    def _record_incremental(self, entries: List[_Pending]) -> None:
        """Update warm-solve and staleness counters for one solved partition.

        A request answered on a network that has taken at least one delta is
        a *warm solve* — its dense view came from the copy-on-write patch
        path, not a rebuild.  Staleness is measured per delta: the time from
        ``apply_delta`` returning to the first subsequent flush that answers
        on that network (i.e. how long clients were served plans computed
        against capacities that had already drifted).
        """
        bases = set()
        for request, _future, _arrived in entries:
            if request.network_ref is None:
                continue
            base = request.network_ref.split("@", 1)[0]
            bases.add(base)
            if base in self._patched_refs:
                self.warm_solves_total += 1
        now = time.monotonic()
        for base in bases:
            marked = self._delta_applied.pop(base, None)
            if marked is not None:
                self.staleness_s_total += now - marked
                self.staleness_samples += 1

    # ------------------------------------------------------------------ #
    # Admission control
    # ------------------------------------------------------------------ #
    def _admit(self, entries: List[_Pending], result) -> List[Dict[str, Any]]:
        """Charge each successful solve against its network's ledger.

        The partition's demands go to the admission owner in one call, in
        priority order (arrival order breaking ties), so when a flush
        carries more demand than the cluster has left, high-priority
        requests win the capacity race regardless of their position in the
        batch.  A mapping that no longer fits gets an ``ok: false``
        response carrying the capacity violation as its
        ``admission.reason``; failed solves pass through unchanged (there
        is nothing to admit).  Responses come back in ``entries`` order.
        """
        order = sorted(range(len(entries)),
                       key=lambda i: (-entries[i][0].priority, i))
        slots, asks, networks = [], [], {}
        for i in order:
            mapping = result.items[i].mapping
            if mapping is None:
                continue
            request = entries[i][0]
            network = request.instance.network
            key = (request.network_ref.split("@", 1)[0]
                   if request.network_ref is not None
                   else f"id:{id(network)}")
            networks.setdefault(key, network)
            slots.append(i)
            asks.append((key, ClusterState.demand_of(
                mapping, demand_fps=self.config.admission_demand_fps)))
        verdicts = dict(zip(slots, self.admission.admit(
            self.replica_id, asks, networks)))
        responses: List[Dict[str, Any]] = []
        for i, (request, _future, _arrived) in enumerate(entries):
            item = result.items[i]
            if i not in verdicts:
                responses.append(item_result_to_wire(
                    item, solver=result.solver, objective=result.objective,
                    network_ref=self._response_ref(request)))
            elif verdicts[i] is not None:
                self.rejected_total += 1
                responses.append(error_response(
                    f"admission rejected: {verdicts[i]}",
                    solver=result.solver, objective=result.objective,
                    admission={"admitted": False, "reason": verdicts[i],
                               "priority": request.priority}))
            else:
                self.admitted_total += 1
                responses.append(item_result_to_wire(
                    item, solver=result.solver, objective=result.objective,
                    network_ref=self._response_ref(request),
                    admission={"admitted": True,
                               "priority": request.priority}))
        return responses
