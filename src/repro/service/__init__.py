"""Async batching service layer: ``solve_many`` behind an HTTP front.

The paper frames ELPC as an on-demand mapping service for streaming
pipelines; this package is that request/response shape for the library.  A
stdlib-only asyncio HTTP server (``repro serve``) accepts JSON solve
requests over **keep-alive** connections and coalesces concurrent ones with
a **continuous-batching** flush policy: while a flush is solving, arriving
requests accumulate and are dispatched the moment the executor frees
(capped at ``max_batch``); ``max_wait_ms`` only bounds the idle-engine
case.  Every flush goes through :func:`repro.core.batch.solve_many` — so
same-network requests ride the tensor engine's group path, and
``--replicas N`` runs N such services side by side.  ``repro loadtest``
measures the whole stack under sustained concurrent load.

Layers (see ``docs/ARCHITECTURE.md``, "Service layer"):

* :mod:`repro.service.wire` — the ``repro-serve/1`` JSON schema (built on
  :meth:`ProblemInstance.to_dict`) and the network interner that restores
  object-identity grouping across independent requests,
* :mod:`repro.service.dispatcher` — :class:`ServiceConfig` +
  :class:`SolveService`, the continuous-batching queue and flush policy,
* :mod:`repro.service.server` — the asyncio HTTP front-end
  (:class:`SolveServer`, :class:`BackgroundServer`, :func:`serve`),
* :mod:`repro.service.client` — :class:`ServiceClient`, the blocking
  keep-alive helper used by tests, benchmarks and the CI smoke step,
* :mod:`repro.service.replicas` — pre-fork replica processes behind one
  shared listener (``repro serve --replicas N``): :class:`ReplicaSupervisor`
  with crash restart + graceful drain, and the shared-memory
  :class:`FleetState` behind the ``fleet`` block of ``/healthz``,
* :mod:`repro.service.loadtest` — the load harness behind ``repro
  loadtest`` (:func:`run_loadtest`, :class:`LoadtestResult`): closed-loop
  concurrent clients, or open-loop arrival schedules — seeded Poisson
  (:func:`poisson_schedule`) or recorded timestamped traces
  (:func:`load_trace`) — over a bounded connection pool.
"""

from .client import ServiceClient, ServiceUnavailableError
from .dispatcher import ServiceConfig, SolveService
from .loadtest import (
    LoadtestResult,
    generate_workload,
    load_trace,
    load_workload,
    poisson_schedule,
    run_loadtest,
)
from .replicas import (
    FleetState,
    ReplicaSupervisor,
    bind_listeners,
    run_replica,
)
from .server import BackgroundServer, SolveServer, serve
from .wire import (
    WIRE_SCHEMA,
    NetworkInterner,
    SolveRequest,
    apply_network_edits,
    error_response,
    item_result_to_wire,
    versioned_ref,
)

__all__ = [
    "WIRE_SCHEMA",
    "SolveRequest",
    "NetworkInterner",
    "apply_network_edits",
    "versioned_ref",
    "item_result_to_wire",
    "error_response",
    "ServiceConfig",
    "SolveService",
    "SolveServer",
    "BackgroundServer",
    "serve",
    "ServiceClient",
    "ServiceUnavailableError",
    "FleetState",
    "ReplicaSupervisor",
    "bind_listeners",
    "run_replica",
    "LoadtestResult",
    "generate_workload",
    "load_trace",
    "load_workload",
    "poisson_schedule",
    "run_loadtest",
]
