"""Pre-fork service replicas behind one shared listener (``repro serve --replicas N``).

One asyncio process does all JSON parsing and response serialisation for the
solve service, so past a few thousand requests per second the *transport* is
single-core-bound long before the solve engine is.  This module scales the
front end the way production inference stacks do: N **pre-fork replica
processes**, each running the full keep-alive server + continuous-batching
dispatcher stack, all accepting from one ``(host, port)``.

Shared listener
---------------
:func:`bind_listeners` binds the listening socket(s) in the supervisor
*before* forking, so the port is resolved (``--port 0``) and announced
exactly once.  Where the platform supports ``SO_REUSEPORT`` (Linux, modern
BSDs) every replica gets its **own** socket bound to the same port and the
kernel hashes incoming connections across them — the best-balanced, no
-thundering-herd configuration.  Elsewhere a single listening socket is
inherited across ``fork`` and every replica runs its accept loop on the
shared file description (the classic pre-fork design); the kernel wakes one
acceptor per connection.

Supervisor
----------
:class:`ReplicaSupervisor` forks the replicas, then sits in a reap loop:

* a replica that **exits unexpectedly** is restarted with bounded
  exponential backoff (consecutive quick crashes double the delay up to
  ``max_backoff_s``; a replica that stayed up ``healthy_after_s`` resets its
  crash streak),
* ``SIGINT``/``SIGTERM`` to the supervisor propagate as ``SIGTERM`` to every
  replica — each drains its queue (every accepted request is answered)
  before exiting — and the supervisor waits for all of them, escalating to
  ``SIGKILL`` only after ``drain_timeout_s``.

Fleet view
----------
Every replica owns its *own* :class:`~repro.service.dispatcher.SolveService`
(and therefore its own
:class:`~repro.service.wire.NetworkInterner` — interners are
**not** shared across the fork; ``network_ref`` digests are pure functions
of the network payload, so a ref learned from replica A still names the same
topology on replica B, which re-interns it on the client's transparent
re-post).  What *is* shared is :class:`FleetState`: a small inherited
shared-memory table where each replica publishes its counters and the
supervisor records pids/liveness/restarts.  Any replica answering ``GET
/healthz`` renders its own payload (tagged ``replica_id``) plus a summed
``fleet`` block and a ``per_replica`` list, so one probe sees the whole
fleet regardless of which process accepted it.

Fleet admission
---------------
With admission control the supervisor holds the fleet's only
:class:`~repro.service.admission.AdmissionBook` and one
``multiprocessing.Pipe`` per replica.  Each replica's dispatcher sends one
message per flush partition (the priority-ordered demands, plus a network
payload the first time it names a ref) and gets one verdict per demand
back; the reap loop's idle wait is a ``multiprocessing.connection.wait``
on those pipes.  No lock or memory is shared with a replica, so killing
one at any instant cannot wedge the others: its reap closes its pipe and
releases everything it held.  A ``POST /delta`` patches only the
receiving replica's interned network (the others keep serving the
capacities they interned) and rebases the book's ledger from that
replica's patched payload.
"""

from __future__ import annotations

import asyncio
import errno
import multiprocessing
import os
import signal
import socket
import sys
import time
import traceback
from multiprocessing.connection import Connection, wait
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..exceptions import SpecificationError
from .admission import AdmissionBook, AdmissionPipe
from .dispatcher import ServiceConfig, SolveService

__all__ = ["FLEET_COUNTERS", "FleetState", "bind_listeners", "run_replica",
           "ReplicaSupervisor"]

#: Counters every replica publishes into its :class:`FleetState` row, in slot
#: order.  Summed into the ``fleet`` block of every ``/healthz`` answer.
#: ``admitted_total``/``rejected_total`` make replicated admission control
#: observable fleet-wide — on the single-process path they only exist as
#: top-level healthz fields, and they vanished under ``--replicas N`` before
#: they had slots here.
FLEET_COUNTERS = ("requests_total", "responses_total", "flushes_total",
                  "flushed_requests_total", "connections_total",
                  "admitted_total", "rejected_total")

#: Supervisor-owned per-replica meta slots (pid / liveness / restart count).
_META_PID, _META_ALIVE, _META_RESTARTS = 0, 1, 2
_N_META = 3


class FleetState:
    """Shared-memory fleet table: one row of counters per replica.

    Created by the supervisor before forking, inherited by every replica.
    Each replica writes only its own row (plain aligned 8-byte stores — this
    is a monitoring surface, and single-writer-per-slot needs no
    cross-process lock); the supervisor owns the pid/alive/restart slots; any
    process may read all rows to render the summed fleet view.
    """

    def __init__(self, replicas: int) -> None:
        if replicas < 1:
            raise SpecificationError(
                f"replicas must be >= 1, got {replicas!r}")
        self.replicas = replicas
        self._meta = multiprocessing.Array("d", replicas * _N_META,
                                           lock=False)
        self._counters = multiprocessing.Array(
            "d", replicas * len(FLEET_COUNTERS), lock=False)

    # ------------------------------------------------------------------ #
    # Replica side
    # ------------------------------------------------------------------ #
    def publish(self, replica_id: int, values: Tuple[float, ...]) -> None:
        """Store this replica's counters (ordered as :data:`FLEET_COUNTERS`)."""
        base = replica_id * len(FLEET_COUNTERS)
        for offset, value in enumerate(values):
            self._counters[base + offset] = float(value)

    # ------------------------------------------------------------------ #
    # Supervisor side
    # ------------------------------------------------------------------ #
    def mark_spawned(self, replica_id: int, pid: int) -> None:
        base = replica_id * _N_META
        self._meta[base + _META_PID] = float(pid)
        self._meta[base + _META_ALIVE] = 1.0

    def mark_dead(self, replica_id: int) -> None:
        self._meta[replica_id * _N_META + _META_ALIVE] = 0.0

    def record_restart(self, replica_id: int) -> None:
        self._meta[replica_id * _N_META + _META_RESTARTS] += 1.0

    # ------------------------------------------------------------------ #
    # Read side (any process)
    # ------------------------------------------------------------------ #
    def per_replica(self) -> List[Dict[str, Any]]:
        """One status dict per replica (pid, liveness, restarts, counters)."""
        rows: List[Dict[str, Any]] = []
        for replica_id in range(self.replicas):
            meta = replica_id * _N_META
            row: Dict[str, Any] = {
                "replica_id": replica_id,
                "pid": int(self._meta[meta + _META_PID]),
                "alive": bool(self._meta[meta + _META_ALIVE]),
                "restarts": int(self._meta[meta + _META_RESTARTS]),
            }
            base = replica_id * len(FLEET_COUNTERS)
            for offset, name in enumerate(FLEET_COUNTERS):
                row[name] = int(self._counters[base + offset])
            rows.append(row)
        return rows

    def summary(self) -> Dict[str, Any]:
        """The summed ``fleet`` block: liveness, restarts, counter totals."""
        rows = self.per_replica()
        fleet: Dict[str, Any] = {
            "replicas": self.replicas,
            "alive": sum(1 for row in rows if row["alive"]),
            "restarts_total": sum(row["restarts"] for row in rows),
        }
        for name in FLEET_COUNTERS:
            fleet[name] = sum(row[name] for row in rows)
        return fleet


def bind_listeners(host: str, port: int, count: int, *, backlog: int = 512
                   ) -> Tuple[List[socket.socket], int, bool]:
    """Bind the fleet's listening socket(s); returns ``(socks, port, reuse)``.

    With ``SO_REUSEPORT`` available (and ``count > 1``) each replica gets its
    own socket on the shared port — the kernel hashes connections across
    them.  Otherwise one socket is returned and every replica accepts on the
    inherited file description.  ``port=0`` resolves to a free port (the
    first bind decides; the rest join it).
    """
    if count < 1:
        raise SpecificationError(f"listener count must be >= 1, got {count!r}")
    reuse_port = count > 1 and hasattr(socket, "SO_REUSEPORT")
    socks: List[socket.socket] = []

    def _new_socket(bind_port: int) -> socket.socket:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            if reuse_port:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            sock.bind((host, bind_port))
            sock.listen(backlog)
        except OSError:
            sock.close()
            raise
        return sock

    try:
        first = _new_socket(port)
    except OSError:
        if not reuse_port:
            raise
        # Some kernels advertise SO_REUSEPORT but reject it (EINVAL/ENOPROT):
        # fall back to the single inherited-FD listener.
        reuse_port = False
        first = _new_socket(port)
    socks.append(first)
    resolved = first.getsockname()[1]
    if reuse_port:
        try:
            for _ in range(count - 1):
                socks.append(_new_socket(resolved))
        except OSError:
            for sock in socks:
                sock.close()
            raise
    return socks, resolved, reuse_port


def run_replica(config: Optional[ServiceConfig], sock: socket.socket,
                replica_id: int, fleet: Optional[FleetState] = None,
                admission: Optional[Connection] = None) -> int:
    """One replica's main: serve on the inherited socket until ``SIGTERM``.

    Constructs the :class:`SolveService` *after* the fork, so every replica
    owns an independent dispatcher, interner and flush executor.
    ``admission`` is this replica's end of its pipe to the supervisor's
    :class:`~repro.service.admission.AdmissionBook` (admission control on a
    fleet): the service admits through it instead of holding ledgers of its
    own, so every replica charges one set of budgets.  ``SIGTERM`` /
    ``SIGINT`` trigger a graceful drain (every accepted request answered)
    before the function returns; the caller (the forked child) exits with
    the returned code.
    """
    from .server import SolveServer

    # The child inherits the supervisor's (or CLI's) handlers; reset before
    # the event loop installs its own drain triggers.
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)

    async def main() -> None:
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except NotImplementedError:  # pragma: no cover - non-POSIX loop
                pass
        server = SolveServer(
            SolveService(config, replica_id=replica_id,
                         admission=(AdmissionPipe(admission)
                                    if admission is not None else None)),
            sock=sock, replica_id=replica_id, fleet=fleet)
        await server.start()
        await server.serve_until(stop)

    try:
        asyncio.run(main())
    finally:
        if admission is not None:
            admission.close()
    return 0


class ReplicaSupervisor:
    """Fork N replicas behind one shared listener; restart the ones that die.

    Lifecycle (``run()`` is the whole story):

    1. bind the listener(s) — the resolved port is available as ``.port``
       and handed to ``announce`` before any child exists,
    2. fork ``replicas`` children, each running :func:`run_replica`,
    3. reap loop: an unexpectedly-dead replica is restarted after a bounded
       exponential backoff; liveness/restart counts are published into the
       shared :class:`FleetState`; with admission control the loop also
       answers every replica's admission messages (waiting on their pipes
       is the loop's idle wait),
    4. ``SIGINT``/``SIGTERM`` → forward ``SIGTERM`` to every child (graceful
       drain), wait up to ``drain_timeout_s``, ``SIGKILL`` stragglers,
       return 0.

    POSIX-only by construction (``os.fork``); the CLI refuses ``--replicas
    N > 1`` elsewhere.
    """

    def __init__(self, config: Optional[ServiceConfig] = None, *,
                 host: str = "127.0.0.1", port: int = 8423,
                 replicas: int = 2, backlog: int = 512,
                 restart_backoff_s: float = 0.05, max_backoff_s: float = 2.0,
                 healthy_after_s: float = 5.0, drain_timeout_s: float = 60.0,
                 announce: Optional[Callable[["ReplicaSupervisor"], None]]
                 = None) -> None:
        if not hasattr(os, "fork"):
            raise SpecificationError(
                "pre-fork replicas need os.fork (POSIX); this platform "
                "cannot run --replicas > 1")
        if replicas < 1:
            raise SpecificationError(
                f"replicas must be >= 1, got {replicas!r}")
        if restart_backoff_s <= 0 or max_backoff_s < restart_backoff_s:
            raise SpecificationError(
                "restart backoff must satisfy 0 < restart_backoff_s <= "
                f"max_backoff_s, got {restart_backoff_s!r}/{max_backoff_s!r}")
        self.config = config or ServiceConfig()
        self.host = host
        self.port = port
        self.replicas = replicas
        self.backlog = backlog
        self.restart_backoff_s = restart_backoff_s
        self.max_backoff_s = max_backoff_s
        self.healthy_after_s = healthy_after_s
        self.drain_timeout_s = drain_timeout_s
        self.announce = announce
        self.reuse_port = False
        self.fleet: Optional[FleetState] = None
        #: The fleet's one admission owner (created in :meth:`run` when the
        #: config enables admission control; ``None`` otherwise).  Replicas
        #: admit through their pipe to it; a reaped replica's holdings are
        #: released from it.
        self.admission: Optional[AdmissionBook] = None
        self._pipes: Dict[int, Connection] = {}  # replica_id -> our end
        self._socks: List[socket.socket] = []
        self._children: Dict[int, int] = {}  # pid -> replica_id
        self._spawned_at: List[float] = [0.0] * replicas
        self._crash_streak: List[int] = [0] * replicas
        self._restart_due: Dict[int, float] = {}  # replica_id -> monotonic
        self._stopping = False

    # ------------------------------------------------------------------ #
    def run(self) -> int:
        """Bind, fork, supervise until signalled; returns the exit code."""
        self._socks, self.port, self.reuse_port = bind_listeners(
            self.host, self.port, self.replicas, backlog=self.backlog)
        self.fleet = FleetState(self.replicas)
        if self.config.admission_control:
            self.admission = AdmissionBook(
                self.config.admission_capacity_factor)
        if self.announce is not None:
            self.announce(self)
        previous = {
            signum: signal.signal(signum, self._on_signal)
            for signum in (signal.SIGINT, signal.SIGTERM)
        }
        try:
            for replica_id in range(self.replicas):
                self._spawn(replica_id)
            while not self._stopping:
                self._reap()
                self._restart_due_replicas()
                self._pump(0.02)
            self._shutdown()
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
            for sock in self._socks:
                sock.close()
            self._socks = []
            for replica_id in list(self._pipes):
                self._close_pipe(replica_id)
        return 0

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _on_signal(self, signum, frame) -> None:  # pragma: no cover - signal
        self._stopping = True

    def _spawn(self, replica_id: int) -> int:
        sock = self._socks[replica_id % len(self._socks)]
        child_end = None
        if self.admission is not None:
            self._pipes[replica_id], child_end = multiprocessing.Pipe()
        pid = os.fork()
        if pid == 0:
            # Child: never return into the supervisor loop.
            code = 1
            try:
                for other in self._socks:
                    if other is not sock:
                        other.close()
                for ours in self._pipes.values():
                    ours.close()
                code = run_replica(self.config, sock, replica_id, self.fleet,
                                   child_end)
            except BaseException:  # pragma: no cover - child crash path
                traceback.print_exc()
            finally:
                os._exit(code)
        if child_end is not None:
            child_end.close()
        self._children[pid] = replica_id
        self._spawned_at[replica_id] = time.monotonic()
        self.fleet.mark_spawned(replica_id, pid)
        return pid

    def _reap(self) -> None:
        """Collect dead children; schedule their restarts with backoff."""
        while self._children:
            try:
                pid, _status = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:  # pragma: no cover - raced reap
                pid = 0
            except OSError as exc:  # pragma: no cover - EINTR on old kernels
                if exc.errno == errno.EINTR:
                    continue
                raise
            if pid == 0:
                return
            replica_id = self._collect(pid)
            if replica_id is None:  # pragma: no cover - foreign child
                continue
            if self._stopping:
                continue
            lived = time.monotonic() - self._spawned_at[replica_id]
            if lived >= self.healthy_after_s:
                self._crash_streak[replica_id] = 0
            else:
                self._crash_streak[replica_id] += 1
            delay = min(self.max_backoff_s,
                        self.restart_backoff_s
                        * (2 ** max(0, self._crash_streak[replica_id] - 1)))
            self._restart_due[replica_id] = time.monotonic() + delay
            print(f"repro-serve replica {replica_id} exited; restarting in "
                  f"{delay:.2f}s", file=sys.stderr, flush=True)

    def _collect(self, pid: int) -> Optional[int]:
        """Book a reaped child as dead; returns its replica id.

        Crash-release: the dead replica's pipe is closed first — a message
        it sent but the supervisor never read is dropped, never committed —
        and then everything it held is refunded, so its admissions do not
        leak budget until the fleet restarts.  Admission commitments are
        deliberately sticky, so the refund applies on every exit path.
        """
        replica_id = self._children.pop(pid, None)
        if replica_id is not None:
            self.fleet.mark_dead(replica_id)
            self._close_pipe(replica_id)
            if self.admission is not None:
                self.admission.release(replica_id)
        return replica_id

    def _close_pipe(self, replica_id: int) -> None:
        conn = self._pipes.pop(replica_id, None)
        if conn is not None:
            conn.close()

    def _pump(self, timeout: float) -> None:
        """Answer replicas' admission messages for up to ``timeout`` seconds.

        Waits on every replica pipe at once (plain sleep without admission
        control) and answers each message that arrived.  A pipe at EOF
        belongs to a dead replica and is closed; its reap releases what it
        held.  An error raised by the book goes back to the asking replica
        instead of stopping the supervisor.
        """
        if not self._pipes:
            time.sleep(timeout)
            return
        holders = {conn: replica_id
                   for replica_id, conn in self._pipes.items()}
        for conn in wait(list(holders), timeout):
            replica_id = holders[conn]
            try:
                message = conn.recv()
            except (EOFError, OSError):
                self._close_pipe(replica_id)
                continue
            try:
                reply = (True, self.admission.answer(replica_id, message))
            except Exception as exc:  # the supervisor must keep serving
                traceback.print_exc()
                reply = (False, f"{type(exc).__name__}: {exc}")
            try:
                conn.send(reply)
            except OSError:  # the replica died waiting; its reap releases
                pass

    def _restart_due_replicas(self) -> None:
        now = time.monotonic()
        for replica_id in [r for r, due in self._restart_due.items()
                           if due <= now]:
            del self._restart_due[replica_id]
            self.fleet.record_restart(replica_id)
            self._spawn(replica_id)

    def _shutdown(self) -> None:
        """Graceful drain: SIGTERM every child, wait, escalate to SIGKILL."""
        self._restart_due.clear()
        for pid in list(self._children):
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:  # pragma: no cover - raced exit
                pass
        deadline = time.monotonic() + self.drain_timeout_s
        while self._children and time.monotonic() < deadline:
            try:
                pid, _status = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:  # pragma: no cover - raced reap
                break
            if pid == 0:
                # Draining replicas still admit what they answer.
                self._pump(0.02)
                continue
            self._collect(pid)
        for pid in list(self._children):  # pragma: no cover - drain timeout
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
            self._collect(pid)
