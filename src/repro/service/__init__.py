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

* :mod:`repro.service.wire` — the ``repro-serve/2`` JSON schema (built on
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

The public names below resolve on first access (a module ``__getattr__``
over :data:`_EXPORTS`), so importing one submodule — ``repro serve`` loads
``server`` and ``wire`` — never loads the HTTP client, the load harness or
the replica supervisor (and with them ``http.client`` and
``multiprocessing``).  ``from repro.service import X`` works for every name
in ``__all__``.
"""

from __future__ import annotations

import importlib
from typing import Any, List

#: Public name -> submodule that defines it.
_EXPORTS = {
    "WIRE_SCHEMA": "wire",
    "SolveRequest": "wire",
    "NetworkInterner": "wire",
    "apply_network_edits": "wire",
    "versioned_ref": "wire",
    "item_result_to_wire": "wire",
    "error_response": "wire",
    "ServiceConfig": "dispatcher",
    "SolveService": "dispatcher",
    "SolveServer": "server",
    "BackgroundServer": "server",
    "serve": "server",
    "ServiceClient": "client",
    "ServiceUnavailableError": "client",
    "FleetState": "replicas",
    "ReplicaSupervisor": "replicas",
    "bind_listeners": "replicas",
    "run_replica": "replicas",
    "LoadtestResult": "loadtest",
    "generate_workload": "loadtest",
    "load_trace": "loadtest",
    "load_workload": "loadtest",
    "poisson_schedule": "loadtest",
    "run_loadtest": "loadtest",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    try:
        submodule = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{submodule}", __name__), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(__all__))
