"""Shared-memory parallel batch runtime behind ``solve_many(workers=N)``.

The paper's experiment campaigns (delay / frame-rate curves versus pipeline
length and network size) are batch workloads: thousands of *small* instances,
usually many per network.  The original process-pool path pickled every
instance — network included — once per solve and, worse, took precedence over
the tensor engine's same-network grouping, so asking for parallelism could
make ``"elpc-tensor"`` batches slower *and* silently change which engine
produced the results.  This module is the fix, structured as a runtime:

* **One shared-memory export per network.**  Each distinct
  :class:`~repro.model.network.TransportNetwork` in a batch is exported once
  via :func:`repro.model.network.export_shared_view` — the dense view's CSR
  edge arrays, transport vectors and adjacency/bandwidth/delay matrices go
  into a single :mod:`multiprocessing.shared_memory` block that workers
  re-wrap zero-copy (:func:`repro.model.network.attach_shared_view`) and cache
  for the life of the pool.
* **Chunked lightweight specs.**  Instances cross the process boundary as
  :class:`~repro.model.serialization.InstanceSpec` chunks (pipeline +
  endpoints + network key), not one ``(instance, solver, ...)`` pickle
  round-trip per solve.
* **Tensor dispatch composes with workers.**  Each worker chunk runs through
  :func:`repro.core.batch._solve_tensor_groups`, so a parallel
  ``"elpc-tensor"`` batch is ``workers`` tensor engines advancing stacked DP
  columns side by side — the grouped dispatch is no longer silently disabled
  by the pool branch.
* **Input-order re-scatter, bit-identical results.**  Workers rebuild real
  :class:`TransportNetwork` objects around the attached views
  (:meth:`TransportNetwork.from_dense_view`), whose link attributes
  round-trip the exported floats exactly, so every solver — scalar,
  vectorized, tensor — produces results bit-identical to ``workers=1``.

:func:`repro.core.batch.solve_many` spins up a transient
:class:`ParallelBatchRunner` per call; keep one open (it is a context
manager) and pass it as ``solve_many(..., runner=...)`` to amortise pool
startup and network exports over many batches::

    with ParallelBatchRunner(workers=4) as runner:
        for campaign in campaigns:
            result = solve_many(campaign, solver="elpc-tensor", runner=runner)

The runtime *requires* the ``fork`` start method (instant workers, parent
and children share one solver registry snapshot and one shared-memory
resource tracker).  Platforms whose default is ``spawn`` or ``forkserver``
(macOS, Windows) fail fast with
:class:`~repro.exceptions.UnsupportedStartMethodError` instead of silently
running an untested path — see :func:`_pool_context` and the "Parallel
runtime" section of ``docs/ARCHITECTURE.md``; sequential solves
(``workers=1``) work everywhere.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from math import ceil
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..exceptions import SpecificationError, UnsupportedStartMethodError
from ..model.network import (
    SharedViewSpec,
    TransportNetwork,
    attach_shared_view,
    export_shared_view,
)
from ..model.serialization import InstanceSpec, ProblemInstance
from .batch import (
    BatchItemResult,
    _describe_unexpected,
    _solve_one,
    _solve_tensor_groups,
    uses_tensor_dispatch,
)
from .mapping import Objective

__all__ = ["ParallelBatchRunner", "maybe_runner"]


@contextmanager
def maybe_runner(workers: Optional[int]) -> Iterator[Optional["ParallelBatchRunner"]]:
    """Yield an open :class:`ParallelBatchRunner` when ``workers > 1``, else ``None``.

    The shared lifecycle of every driver that *optionally* parallelises a
    sequence of :func:`repro.core.batch.solve_many` calls (the comparison
    harness, the agreement cross-check, the scaling sweeps): one pool and one
    set of shared-memory exports serve all the batches, and both are torn
    down on exit.  The yielded value can be passed straight to
    ``solve_many(..., runner=...)`` — ``runner=None`` means sequential.
    """
    if workers and int(workers) > 1:
        runner = ParallelBatchRunner(workers=int(workers))
        try:
            yield runner
        finally:
            runner.close()
    else:
        yield None

#: One worker chunk: instance specs, the shared-network specs they reference,
#: solver name, objective, solver kwargs, tensor-dispatch flag, and the first
#: group id this chunk may assign (globally unique by construction).
_ChunkPayload = Tuple[Tuple[InstanceSpec, ...], Dict[str, SharedViewSpec],
                      str, Objective, dict, bool, int]

# ----------------------------------------------------------------------- #
# Worker side
# ----------------------------------------------------------------------- #
#: Per-worker-process cache of attached networks keyed by shared-memory block
#: name, plus the blocks themselves (the views are zero-copy wraps over their
#: buffers, so the blocks must outlive the networks; worker exit cleans up).
_WORKER_NETWORKS: Dict[str, TransportNetwork] = {}
_WORKER_SHM: Dict[str, object] = {}


def _worker_network(spec: SharedViewSpec) -> TransportNetwork:
    """Attach (once per worker) and cache the network behind ``spec``."""
    network = _WORKER_NETWORKS.get(spec.shm_name)
    if network is None:
        view, shm = attach_shared_view(spec)
        network = TransportNetwork.from_dense_view(view,
                                                   name=spec.network_name)
        _WORKER_NETWORKS[spec.shm_name] = network
        _WORKER_SHM[spec.shm_name] = shm
    return network


def _solve_chunk(payload: _ChunkPayload
                 ) -> Tuple[List[BatchItemResult], List[int]]:
    """Solve one chunk of a batch inside a worker process.

    Returns ``(items, unattached)``: solved items carrying their original
    batch indices (the parent re-scatters them into input order), plus the
    indices of instances whose network could not be attached in this worker —
    the parent re-solves those in-process, since *its* copy of the network is
    healthy, keeping the batch result identical to a sequential run.  Solver
    failures never raise — they come back as recorded items, so an
    unpicklable exception cannot tear the pool down.
    """
    specs, network_specs, solver, objective, solver_kwargs, tensor, \
        first_group_id = payload
    start = time.perf_counter()
    try:
        from .registry import get_solver

        try:
            get_solver(solver, objective)
        except SpecificationError:
            # The parent validated the name, so this worker's registry
            # snapshot (taken when the pool started) predates the solver's
            # registration.  Hand the whole chunk back for an in-process
            # solve rather than recording bogus unknown-solver failures.
            return [], [spec.index for spec in specs]
        unattached: List[int] = []
        alive: List[InstanceSpec] = []
        instances = []
        for spec in specs:
            try:
                network = _worker_network(network_specs[spec.network_key])
            except Exception:  # attach failed only in this worker
                unattached.append(spec.index)
            else:
                alive.append(spec)
                instances.append(spec.resolve(network))
        if tensor:
            local = _solve_tensor_groups(instances, objective,
                                         dict(solver_kwargs),
                                         first_group_id=first_group_id)
            items = [replace(item, index=spec.index)
                     for spec, item in zip(alive, local)]
        else:
            wall_start = time.perf_counter()
            items = [_solve_one((spec.index, instance, solver, objective,
                                 dict(solver_kwargs)))
                     for spec, instance in zip(alive, instances)]
            wall = time.perf_counter() - wall_start
            items = [replace(item, group_id=first_group_id,
                             group_size=len(items), group_wall_s=wall)
                     for item in items]
        for item in items:
            if item.mapping is not None:
                # Detach the worker-local network before the result pickles
                # back: the parent re-attaches its own (identical) network,
                # so the return path ships no network bytes either.
                object.__setattr__(item.mapping, "network", None)
        return items, unattached
    except Exception as exc:  # last resort: anything outside per-item scope
        error, tb = _describe_unexpected(exc)
        per_item = (time.perf_counter() - start) / max(len(specs), 1)
        return ([BatchItemResult(index=spec.index, name=spec.name, mapping=None,
                                 error=error, runtime_s=per_item, traceback=tb)
                 for spec in specs], [])


# ----------------------------------------------------------------------- #
# Parent side
# ----------------------------------------------------------------------- #
def _pool_context(platform: Optional[str] = None,
                  default_method: Optional[str] = None):
    """The multiprocessing context the worker pool runs on (``fork`` only).

    On Linux this is always the ``fork`` context.  Everywhere else the
    platform default is inspected, and anything other than ``fork`` —
    ``spawn`` (macOS, Windows) or ``forkserver`` — raises
    :class:`~repro.exceptions.UnsupportedStartMethodError` *before* a pool
    starts: under those start methods workers re-import the package (parent
    solver registrations are invisible) and shared-memory attachment /
    resource-tracker lifetimes follow different rules, none of which this
    runtime is tested against.  Failing fast with a pointer to
    ``workers=1`` beats silently producing results from an unexercised
    code path.

    ``platform`` and ``default_method`` default to the live
    ``sys.platform`` / ``multiprocessing.get_start_method()`` and exist so
    the non-POSIX verdicts are testable from any platform
    (``tests/test_parallel_batch.py``).
    """
    import multiprocessing as mp

    platform = sys.platform if platform is None else platform
    if platform.startswith("linux"):
        # Instant workers that inherit the parent's registry and share its
        # shared-memory resource tracker.
        return mp.get_context("fork")
    method = default_method or mp.get_start_method()
    if method != "fork":
        raise UnsupportedStartMethodError(
            f"the shared-memory parallel runtime requires the 'fork' start "
            f"method, but this platform ({platform}) defaults to "
            f"{method!r}, which is untested here (worker registry snapshots "
            "and shared-memory lifetimes differ); solve with workers=1, or "
            "run on a platform with fork (see docs/ARCHITECTURE.md, "
            "'Parallel runtime')", start_method=method)
    return mp.get_context(method)


class ParallelBatchRunner:
    """Persistent worker pool + shared-memory network cache for batch solves.

    Parameters
    ----------
    workers:
        Number of worker processes (≥ 1).
    chunks_per_worker:
        Default chunking granularity: a batch is split into about
        ``workers * chunks_per_worker`` contiguous chunks (overridable per
        call via ``chunk_size``).  Two per worker balances load against
        tensor-group size and per-chunk dispatch overhead.

    The pool is started lazily on the first :meth:`solve`; exported networks
    are cached by dense-view identity, so repeated batches over the same
    topologies ship no network bytes at all.  Always :meth:`close` the runner
    (or use it as a context manager) — it owns the shared-memory blocks and
    unlinks them on close.
    """

    def __init__(self, workers: int, *, chunks_per_worker: int = 2) -> None:
        workers = int(workers)
        if workers < 1:
            raise SpecificationError(f"workers must be >= 1, got {workers!r}")
        if chunks_per_worker < 1:
            raise SpecificationError(
                f"chunks_per_worker must be >= 1, got {chunks_per_worker!r}")
        self.workers = workers
        self.chunks_per_worker = chunks_per_worker
        self._pool = None
        # network id -> (network, view, shm, spec); the network reference
        # pins the id, the view reference detects staleness after mutation.
        self._exports: Dict[int, Tuple[object, object, object,
                                       SharedViewSpec]] = {}
        self._closed = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def _ensure_pool(self):
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor

            self._pool = ProcessPoolExecutor(max_workers=self.workers,
                                             mp_context=_pool_context())
        return self._pool

    def close(self) -> None:
        """Shut the pool down and release every exported shared-memory block."""
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        for _network, _view, shm, _spec in self._exports.values():
            self._unlink(shm)
        self._exports.clear()

    @staticmethod
    def _unlink(shm) -> None:
        try:
            shm.close()
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass

    def stats(self) -> Dict[str, object]:
        """Live runner state for monitoring (the service ``/healthz`` payload).

        ``exported_networks`` counts distinct shared-memory exports currently
        cached (one per network object seen), ``pool_started`` says whether
        the lazy worker pool has been spun up yet.
        """
        return {"workers": self.workers,
                "exported_networks": len(self._exports),
                "pool_started": self._pool is not None,
                "closed": self._closed}

    def __enter__(self) -> "ParallelBatchRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------ #
    # Network export cache
    # ------------------------------------------------------------------ #
    def _network_spec(self, network: TransportNetwork) -> SharedViewSpec:
        """Export ``network``'s dense view once; return the attach spec.

        Mutating a network invalidates its cached view, so the next batch
        over it exports a fresh block; the replaced block is unlinked on the
        spot — :meth:`solve` is synchronous and POSIX mappings survive the
        unlink, so workers still holding the old attachment are unaffected —
        which keeps a long-lived runner over mutating networks from
        accumulating shared memory until :meth:`close`.
        """
        view = network.dense_view()
        entry = self._exports.get(id(network))
        if entry is not None and entry[1] is view:
            return entry[3]
        if entry is not None:
            self._unlink(entry[2])  # stale export of a mutated network
        shm, spec = export_shared_view(view, network_name=network.name)
        self._exports[id(network)] = (network, view, shm, spec)
        return spec

    # ------------------------------------------------------------------ #
    # Batch execution
    # ------------------------------------------------------------------ #
    def solve(self, instances: Sequence[ProblemInstance], *, solver: str,
              objective: Objective = Objective.MIN_DELAY,
              chunk_size: Optional[int] = None,
              **solver_kwargs) -> List[BatchItemResult]:
        """Solve a batch over the pool; items come back in input order.

        ``solver`` must be a registry name.  The builtin tensor solvers
        (:data:`repro.core.batch.TENSOR_SOLVERS`, unless overridden in the
        registry) dispatch each chunk through the same-network group solver;
        everything else loops per item inside the chunk.  Instances whose
        network cannot be exported (no dense view, shared memory
        unavailable) — and whole chunks whose solver name is unknown to a
        worker's registry snapshot — are solved in-process with the exact
        sequential error policy, so the batch result never depends on
        whether shipping succeeded.

        Custom solvers and worker processes: workers see the registry as it
        was when the pool started (a fork snapshot on Linux; spawn platforms
        re-import the package, so parent-process registrations are *never*
        visible there and custom-solver batches degrade to in-process
        solves).  On Linux, register custom solvers — including overrides of
        builtin names — before the first :meth:`solve`; names workers cannot
        resolve fall back in-process, but a builtin name *overridden* after
        the pool started would still run the stale builtin inside workers.
        """
        if self._closed:
            raise SpecificationError("ParallelBatchRunner is closed")
        if not isinstance(solver, str):
            raise SpecificationError(
                "the parallel batch runtime needs the solver by registry name")
        if chunk_size is not None:
            chunk_size = int(chunk_size)
            if chunk_size < 1:
                raise SpecificationError(
                    f"chunk_size must be >= 1, got {chunk_size!r}")
        instances = list(instances)
        shippable: List[Tuple[int, ProblemInstance, SharedViewSpec]] = []
        local: List[int] = []
        for index, instance in enumerate(instances):
            try:
                spec = self._network_spec(instance.network)
            except Exception:
                # No dense view, shared memory unavailable, or a malformed
                # network blowing up arbitrarily — route the item to the
                # in-process fallback, whose per-item error policy records
                # exactly what a sequential solve of it would.
                local.append(index)
            else:
                shippable.append((index, instance, spec))

        # Decided once here, in the parent: worker registry snapshots never
        # change which engine a batch runs on (a user override of the tensor
        # name disables group dispatch everywhere at once).
        tensor = uses_tensor_dispatch(solver, objective)
        if tensor and shippable:
            # Keep same-network items adjacent (stable in first-seen network
            # order) so worker chunks hold few, large tensor groups instead of
            # shredding every group across chunk boundaries.  Results are
            # re-scattered by index, so the reordering is invisible.
            first_seen: Dict[str, int] = {}
            for _index, _instance, spec in shippable:
                first_seen.setdefault(spec.shm_name, len(first_seen))
            shippable.sort(key=lambda entry: (first_seen[entry[2].shm_name],
                                              entry[0]))

        items: List[Optional[BatchItemResult]] = [None] * len(instances)
        if shippable:
            if chunk_size is None:
                chunk_size = max(1, ceil(len(shippable)
                                         / (self.workers * self.chunks_per_worker)))
            payloads: List[_ChunkPayload] = []
            group_base = 0
            for lo in range(0, len(shippable), chunk_size):
                chunk = shippable[lo:lo + chunk_size]
                specs = tuple(
                    InstanceSpec.from_instance(index, instance, spec.shm_name)
                    for index, instance, spec in chunk)
                network_specs = {spec.shm_name: spec for _, _, spec in chunk}
                # Each chunk assigns at most len(chunk) group ids starting at
                # its base, so ids stay unique across the whole batch.
                payloads.append((specs, network_specs, solver, objective,
                                 dict(solver_kwargs), tensor, group_base))
                group_base += len(chunk)
            pool = self._ensure_pool()
            for chunk_items, unattached in pool.map(_solve_chunk, payloads):
                for item in chunk_items:
                    if item.mapping is not None:
                        # Re-attach this process's own network in place of
                        # the one the worker detached before pickling.
                        object.__setattr__(item.mapping, "network",
                                           instances[item.index].network)
                    items[item.index] = item
                # A worker-side attach failure says nothing about the
                # parent's (healthy) network: re-solve those in-process.
                local.extend(unattached)
        for index in local:
            items[index] = _solve_one((index, instances[index], solver,
                                       objective, dict(solver_kwargs)))
        return items  # type: ignore[return-value]
