"""Blocking HTTP client for the solve service (tests, examples, CI smoke).

Stdlib-only and **keep-alive**: each thread using the client holds one
persistent socket, so a multi-solve session pays TCP and connection setup
once instead of once per request (the server answers ``Connection:
keep-alive`` and keeps the socket open).  The persistent path speaks a
minimal HTTP/1.1 framing of its own rather than :mod:`http.client` — the
service's responses are always ``Content-Length``-framed JSON, and
``http.client`` burns ~0.2 ms per response parsing headers through
:mod:`email.parser`, which would dominate the very per-request cost
keep-alive exists to remove.  A stale socket — the server restarted,
evicted the connection, or an intermediary dropped it — surfaces as a
closed-connection read on the next exchange and is retried exactly once on
a fresh connection, transparently (solves are pure, so the retry is safe).

``keep_alive=False`` opens one :mod:`http.client` connection per request
instead; against a ``--replicas`` fleet, fresh connections let the kernel
spread requests over the ``SO_REUSEPORT`` listeners.

The client advertises the ``repro-serve/2`` wire schema of
:mod:`repro.service.wire` (every request carries ``schema`` and may carry a
``priority`` for the server's admission control): requests are built from
real :class:`~repro.model.serialization.ProblemInstance` objects and
responses come back as plain dictionaries (``ok`` / ``error`` / ``mapping`` /
``group_id`` / ``admission`` ...), so a test can assert on coalescing,
admission and results without any deserialization helper.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from http.client import HTTPConnection
from typing import Any, Dict, Optional, Tuple

from ..core.mapping import Objective
from ..exceptions import ReproError
from ..model.serialization import ProblemInstance
from .wire import WIRE_SCHEMA, SolveRequest

__all__ = ["ServiceClient", "ServiceUnavailableError"]


class ServiceUnavailableError(ReproError, ConnectionError):
    """The service did not answer (connection refused / timed out)."""


class _StaleConnection(Exception):
    """The server closed (or garbled) a previously-working keep-alive socket."""


class _PersistentConnection:
    """One keep-alive socket plus its receive buffer (per client thread)."""

    def __init__(self, host: str, port: int, timeout: float) -> None:
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = b""

    def close(self) -> None:
        try:
            self.sock.close()
        except Exception:  # pragma: no cover - already torn down
            pass


def _read_http_response(connection: _PersistentConnection
                        ) -> Tuple[int, bytes, bool]:
    """Read one ``Content-Length``-framed response: ``(status, body, close)``.

    Raises :class:`_StaleConnection` when the socket EOFs or the bytes do not
    frame as an HTTP response — on a reused keep-alive socket both mean the
    same thing (the server has since closed its end) and warrant one retry.
    """
    sock, buffer = connection.sock, connection.buffer
    while b"\r\n\r\n" not in buffer:
        chunk = sock.recv(65536)
        if not chunk:
            connection.buffer = b""
            raise _StaleConnection("connection closed before a response")
        buffer += chunk
    head, _, buffer = buffer.partition(b"\r\n\r\n")
    status_line, *header_lines = head.split(b"\r\n")
    content_length: Optional[int] = None
    will_close = False
    try:
        status = int(status_line.split(None, 2)[1])
        for line in header_lines:
            name, _sep, value = line.partition(b":")
            name = name.strip().lower()
            if name == b"content-length":
                content_length = int(value)
            elif name == b"connection":
                will_close = b"close" in value.lower()
        if content_length is None or content_length < 0:
            raise ValueError("missing Content-Length")
    except (IndexError, ValueError) as exc:
        connection.buffer = b""
        raise _StaleConnection(f"unparseable response head: {exc}") from exc
    while len(buffer) < content_length:
        chunk = sock.recv(65536)
        if not chunk:
            connection.buffer = b""
            raise _StaleConnection("connection closed mid-response")
        buffer += chunk
    connection.buffer = buffer[content_length:]
    return status, buffer[:content_length], will_close


class ServiceClient:
    """Talk to a running ``repro serve`` instance.

    Parameters
    ----------
    host, port:
        Where the server listens (``repro serve --host --port``).
    timeout:
        Per-request socket timeout in seconds; solves block until their
        flush completes, so keep it above the expected batch latency.
    keep_alive:
        ``True`` (default): one persistent connection per calling thread,
        reused across requests with a single transparent retry on a stale
        socket.  ``False``: a fresh :class:`~http.client.HTTPConnection` per
        request (spreads requests over a replica fleet's listeners).

    The client is thread-safe: connections are thread-local, so N threads
    sharing one client hold N server-side connections, each keep-alive.
    Use it as a context manager (or call :meth:`close`) to drop the
    persistent connections deterministically.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8423, *,
                 timeout: float = 120.0, use_network_refs: bool = True,
                 keep_alive: bool = True) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.keep_alive = keep_alive
        #: Send ``{"ref": ...}`` instead of the full network once the server
        #: has told us its interned digest (the ``network_ref`` response
        #: field) — the big per-request saving for same-network streams.
        self.use_network_refs = use_network_refs
        # network object id -> (network, ref); the network reference pins the
        # id so it cannot be recycled by the allocator.  Bounded so a client
        # streaming over many distinct topologies cannot grow without limit.
        self._network_refs: Dict[int, tuple] = {}
        self._max_network_refs = 64
        self._local = threading.local()
        #: Every persistent connection not yet dropped, across threads, so
        #: close() can shut them all down from any one thread.
        self._open_connections: set = set()
        self._connections_lock = threading.Lock()
        #: Stale-socket retries that were actually taken: the server closed
        #: (or a replica died under) a previously-working keep-alive
        #: connection and the exchange was transparently replayed on a fresh
        #: one.  Observable so tests can pin that a replica kill really
        #: exercised the reconnect path.
        self.reconnects_total = 0

    # ------------------------------------------------------------------ #
    # Transport
    # ------------------------------------------------------------------ #
    def _connection(self) -> _PersistentConnection:
        """This thread's persistent connection, created on first use."""
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = _PersistentConnection(self.host, self.port,
                                               self.timeout)
            self._local.connection = connection
            with self._connections_lock:
                self._open_connections.add(connection)
        return connection

    def _drop_connection(self) -> None:
        """Discard this thread's persistent connection (stale socket)."""
        connection = getattr(self._local, "connection", None)
        if connection is None:
            return
        self._local.connection = None
        with self._connections_lock:
            self._open_connections.discard(connection)
        connection.close()

    def close(self) -> None:
        """Close every persistent connection this client opened (all threads)."""
        with self._connections_lock:
            connections, self._open_connections = self._open_connections, set()
        for connection in connections:
            connection.close()
        self._local = threading.local()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def request(self, method: str, path: str,
                payload: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """One HTTP exchange; returns the parsed JSON body of the response.

        Rides this thread's persistent connection; a stale keep-alive socket
        (server closed its end since the last exchange) is retried once on a
        fresh connection before giving up.
        """
        body = (json.dumps(payload).encode("utf-8")
                if payload is not None else None)
        if self.keep_alive:
            raw = self._exchange_keep_alive(method, path, body)
        else:
            raw = self._exchange_per_request(method, path, body)
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServiceUnavailableError(
                f"non-JSON response from {self.host}:{self.port}: "
                f"{raw[:200]!r}") from exc

    def _exchange_keep_alive(self, method: str, path: str,
                             body: Optional[bytes]) -> bytes:
        head = f"{method} {path} HTTP/1.1\r\nHost: {self.host}:{self.port}\r\n"
        if body is not None:
            head += ("Content-Type: application/json\r\n"
                     f"Content-Length: {len(body)}\r\n\r\n")
            request_bytes = head.encode("ascii") + body
        else:
            request_bytes = (head + "\r\n").encode("ascii")
        last_exc: Optional[BaseException] = None
        for attempt in range(2):
            fresh = getattr(self._local, "connection", None) is None
            try:
                connection = self._connection()
                connection.sock.sendall(request_bytes)
                _status, raw, will_close = _read_http_response(connection)
            except (_StaleConnection, BrokenPipeError,
                    ConnectionResetError) as exc:
                # A previously-working socket the server has since closed:
                # reconnect and retry once.  A connection that failed on its
                # very first exchange is a dead service, not a stale socket.
                self._drop_connection()
                last_exc = exc
                if fresh or attempt == 1:
                    break
                self.reconnects_total += 1
                continue
            except (OSError, socket.timeout) as exc:
                self._drop_connection()
                raise ServiceUnavailableError(
                    f"no solve service answered at {self.host}:{self.port} "
                    f"({exc})") from exc
            if will_close:
                self._drop_connection()
            return raw
        raise ServiceUnavailableError(
            f"no solve service answered at {self.host}:{self.port} "
            f"({last_exc})") from last_exc

    def _exchange_per_request(self, method: str, path: str,
                              body: Optional[bytes]) -> bytes:
        """One fresh ``http.client`` connection per exchange."""
        headers = {"Connection": "close"}
        if body is not None:
            headers["Content-Type"] = "application/json"
        connection = HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            connection.request(method, path, body=body, headers=headers)
            return connection.getresponse().read()
        except (OSError, socket.timeout) as exc:
            raise ServiceUnavailableError(
                f"no solve service answered at {self.host}:{self.port} "
                f"({exc})") from exc
        finally:
            connection.close()

    # ------------------------------------------------------------------ #
    # Service API
    # ------------------------------------------------------------------ #
    def solve(self, instance: ProblemInstance, *,
              solver: str = "elpc-tensor",
              objective: Objective = Objective.MIN_DELAY,
              priority: float = 0.0,
              **solver_kwargs) -> Dict[str, Any]:
        """Solve one instance through the service; returns the wire response.

        The response is :class:`~repro.core.batch.BatchItemResult`-shaped:
        ``ok``, ``error``, ``runtime_s``, ``group_id``/``group_size`` (which
        reveal micro-batch coalescing) and ``mapping`` (groups, path and both
        objective values) when the solve succeeded.  ``priority`` matters
        only on servers running admission control (``repro serve
        --admission-control``): higher-priority requests win the capacity
        race within a flush, and a capacity rejection comes back as ``ok:
        false`` with an ``admission`` object.

        The first solve over a network posts it in full; afterwards the
        client sends the server-assigned ``network_ref`` instead (unless
        ``use_network_refs=False``).  A stale reference — say the server
        restarted or evicted the network — is retried transparently with the
        full payload.
        """
        cached = (self._network_refs.get(id(instance.network))
                  if self.use_network_refs else None)
        if cached is not None:
            # Reference path: never serialise the network at all — for
            # same-network request streams this is the dominant saving.
            payload: Dict[str, Any] = {
                "schema": WIRE_SCHEMA,
                "instance": {
                    "name": instance.name,
                    "pipeline": instance.pipeline.to_dict(),
                    "network": {"ref": cached[1]},
                    "request": {"source": instance.request.source,
                                "destination": instance.request.destination},
                },
                "solver": solver,
                "objective": objective.value,
            }
            if solver_kwargs:
                payload["solver_kwargs"] = dict(solver_kwargs)
            if priority:
                payload["priority"] = priority
        else:
            request = SolveRequest(instance=instance, solver=solver,
                                   objective=objective,
                                   solver_kwargs=dict(solver_kwargs),
                                   priority=priority)
            payload = request.to_wire()
        response = self.request("POST", "/solve", payload)
        if cached is not None and not response.get("ok") and \
                "network ref" in (response.get("error") or ""):
            # Stale ref (server restart / cache eviction): re-post in full.
            del self._network_refs[id(instance.network)]
            payload["instance"]["network"] = instance.network.to_dict()
            response = self.request("POST", "/solve", payload)
        if self.use_network_refs and response.get("network_ref"):
            if (id(instance.network) not in self._network_refs
                    and len(self._network_refs) >= self._max_network_refs):
                self._network_refs.pop(next(iter(self._network_refs)))
            self._network_refs[id(instance.network)] = (
                instance.network, response["network_ref"])
        return response

    def apply_delta(self, ref_or_network, edits) -> Dict[str, Any]:
        """POST a capacity delta against an interned network (``/delta``).

        ``ref_or_network`` is either a ``network_ref`` string from a solve
        response, or a network object this client has already solved over
        (its cached ref is used).  ``edits`` is a list of scalar-edit objects
        (``{"kind": "power", "node": ..., "value": ...}`` /
        ``{"kind": "bandwidth"|"delay", "u": ..., "v": ..., "value": ...}``).
        The response carries the new epoch-versioned ``network_ref``,
        ``view_epoch`` and the server's patch/rebuild counters.
        """
        if isinstance(ref_or_network, str):
            ref = ref_or_network
        else:
            cached = self._network_refs.get(id(ref_or_network))
            if cached is None:
                raise ReproError(
                    "this client holds no network_ref for that network — "
                    "solve over it once first, or pass the ref string")
            ref = cached[1]
        response = self.request("POST", "/delta", {"schema": WIRE_SCHEMA,
                                                   "ref": ref,
                                                   "edits": list(edits)})
        if not isinstance(ref_or_network, str) and response.get("network_ref"):
            self._network_refs[id(ref_or_network)] = (
                ref_or_network, response["network_ref"])
        return response

    def healthz(self) -> Dict[str, Any]:
        """The service's status payload (queue depth, config, counters)."""
        return self.request("GET", "/healthz")

    def wait_ready(self, *, timeout: float = 30.0,
                   interval: float = 0.05) -> Dict[str, Any]:
        """Poll ``/healthz`` until the service answers; returns its status.

        Raises :class:`ServiceUnavailableError` when ``timeout`` elapses
        first — the tool for "started ``repro serve`` in the background,
        when can I send work?" (the CI smoke step does exactly this).
        """
        deadline = time.monotonic() + timeout
        while True:
            try:
                return self.healthz()
            except ServiceUnavailableError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(interval)
