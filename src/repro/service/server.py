"""Stdlib-only HTTP front-end for the solve service (``asyncio.start_server``).

A deliberately small HTTP/1.1 implementation — request line, headers,
``Content-Length`` body — because the service needs no framework features:
two routes and JSON bodies.  Connections are **keep-alive**: one handler
task loops reading requests and writing responses until the client closes
the socket or sends ``Connection: close`` (HTTP/1.0 clients must opt *in*
with ``Connection: keep-alive``), so a steady-state client pays TCP and
handler setup once per session rather than once per solve.  Request bodies
beyond :attr:`ServiceConfig.max_body_bytes` are refused with HTTP 413
before any buffering.  Routes:

* ``POST /solve`` — one solve request (:mod:`repro.service.wire` schema);
  always answered 200 with a per-request result payload, ``ok: false`` +
  ``error`` on failures (malformed *HTTP/JSON* gets 400, unknown paths 404).
* ``POST /delta`` — scalar capacity/bandwidth/delay edits against an interned
  network (``{"ref": ..., "edits": [...]}``): the network is patched in
  place, its ``network_ref`` digest survives (responses gain a ``@epoch``
  suffix), admission ledgers are rebased, and subsequent reference-style
  solves run against the drifted capacities via the delta journal's
  copy-on-write view patches (:meth:`SolveService.apply_delta`).
* ``GET /healthz`` — service status: queue depth, flush/batch-size/queue-wait
  counters, incremental-view counters (``view_epoch``,
  ``delta_patches_total``, ``warm_solves_total``, ``staleness_ms_mean``),
  engine configuration (:meth:`SolveService.status`) plus the
  server's accepted-connection counter.

Every response carries a ``replica_id`` (0 for a single-process server) so
clients and the loadtest harness can attribute traffic per replica.  Under a
pre-fork fleet (``repro serve --replicas N``,
:mod:`repro.service.replicas`) the server publishes its counters into the
shared :class:`~repro.service.replicas.FleetState` and ``/healthz`` answers
gain a summed ``fleet`` block plus a ``per_replica`` list, so one probe sees
the whole fleet no matter which replica accepted it.

:class:`BackgroundServer` runs the whole stack on a daemon thread for tests,
benchmarks and notebooks; the CLI (``repro serve``) runs it in the foreground
with graceful drain on SIGINT/SIGTERM.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import threading
from collections import OrderedDict
from typing import Any, Dict, Mapping, Optional, Tuple

from ..exceptions import ReproError, SpecificationError
from .dispatcher import ServiceConfig, SolveService
from .wire import SolveRequest, error_response

__all__ = ["SolveServer", "BackgroundServer", "serve"]

#: Bound of the parsed-request LRU and of the set of bodies seen once.
PARSE_CACHE_SIZE = 512


class SolveServer:
    """Bind the service to a host/port; owns the ``asyncio.start_server``.

    ``sock`` (a bound, listening socket) replaces host/port binding — the
    pre-fork replica path (:mod:`repro.service.replicas`) hands every child
    the listener its supervisor bound before forking.  ``replica_id`` tags
    every response (and the healthz payload); ``fleet`` is the shared
    :class:`~repro.service.replicas.FleetState` this replica publishes its
    counters into.
    """

    def __init__(self, service: SolveService, *, host: str = "127.0.0.1",
                 port: int = 8423, sock=None, replica_id: int = 0,
                 fleet=None) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.sock = sock
        self.replica_id = int(replica_id)
        self.fleet = fleet
        self._server: Optional["asyncio.AbstractServer"] = None
        #: Live connection-handler tasks; close() awaits them so a drained
        #: request's response write can never be cancelled by loop teardown
        #: (Server.wait_closed only waits for handlers on Python >= 3.12.1).
        self._handlers: set = set()
        #: Open connections' writers; close() force-closes them so handlers
        #: idling in readline between keep-alive requests cannot stall
        #: shutdown.
        self._connections: set = set()
        self._closing = False
        #: Accepted TCP connections over the server's lifetime.  With
        #: keep-alive clients this grows per *session*, not per request —
        #: the regression tests pin exactly that.
        self.connections_total = 0
        #: Parsed-request cache: body digest -> SolveRequest.  Parsing is a
        #: pure function of the body bytes (given the interner's contents),
        #: so a replayed byte-identical body — the steady state of a client
        #: re-posting the same reference-style instances — skips JSON decode
        #: and instance reconstruction entirely.  A body is admitted on its
        #: *second* sighting: ``_seen_once`` remembers the digests of bodies
        #: posted once, so one-shot bodies never hold a parsed request and a
        #: replayed body hits from its third post.  Only successful parses
        #: are cached (a failed one may succeed later, e.g. once its network
        #: ref is posted).  A hit whose network is no longer the one interned
        #: under its ref (evicted, maybe re-interned and patched since) is
        #: parsed again, so it never solves on a stale network.  Touched
        #: only from the event-loop thread.
        self._parsed_requests: "OrderedDict[bytes, SolveRequest]" = OrderedDict()
        self._seen_once: "OrderedDict[bytes, None]" = OrderedDict()
        self.request_cache_hits = 0

    async def start(self) -> None:
        """Start the service and listen; ``port=0`` resolves to a free port."""
        await self.service.start()
        self._closing = False
        if self.sock is not None:
            self._server = await asyncio.start_server(self._handle,
                                                      sock=self.sock)
        else:
            self._server = await asyncio.start_server(self._handle, self.host,
                                                      self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def close(self, *, drain: bool = True) -> None:
        """Stop accepting connections, then close the service (draining).

        Keep-alive connections idling between requests are force-closed
        *after* the service drain (their handlers sit in ``readline`` waiting
        for a next request that must not block shutdown); handlers are then
        awaited so every answered request's response is actually written
        before the event loop tears down.
        """
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.close(drain=drain)
        for writer in list(self._connections):
            try:
                writer.close()
            except Exception:  # pragma: no cover - already torn down
                pass
        if self._handlers:
            await asyncio.gather(*list(self._handlers),
                                 return_exceptions=True)

    async def serve_until(self, stop: "asyncio.Event") -> None:
        """Run until ``stop`` is set, then shut down gracefully."""
        await stop.wait()
        await self.close(drain=True)

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #
    async def _handle(self, reader: "asyncio.StreamReader",
                      writer: "asyncio.StreamWriter") -> None:
        """One connection: loop requests → responses until the client closes
        the socket, sends ``Connection: close``, errors out, or the server
        shuts down (keep-alive lifecycle)."""
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
            task.add_done_callback(self._handlers.discard)
        self._connections.add(writer)
        self.connections_total += 1
        try:
            while True:
                try:
                    parsed = await _read_http_request(
                        reader,
                        max_body_bytes=self.service.config.max_body_bytes)
                except _HttpError as exc:
                    # After a malformed request line or a refused oversized
                    # body the framing is untrustworthy: answer, then close.
                    await self._write_json(writer, exc.status,
                                           error_response(str(exc)),
                                           keep_alive=False)
                    break
                if parsed is None:
                    break  # clean EOF between requests: client is done
                method, path, body, keep_alive = parsed
                keep_alive = keep_alive and not self._closing
                status, payload = await self._respond(method, path, body)
                await self._write_json(writer, status, payload,
                                       keep_alive=keep_alive)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange; nothing to answer
        except Exception as exc:  # pragma: no cover - defensive
            try:
                await self._write_json(writer, 500, error_response(
                    f"{type(exc).__name__}: {exc}"), keep_alive=False)
            except Exception:
                pass
        finally:
            self._connections.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:  # pragma: no cover - already torn down
                pass

    def _publish_fleet(self) -> None:
        """Push this replica's counters into the shared fleet table."""
        if self.fleet is None:
            return
        service = self.service
        self.fleet.publish(self.replica_id, (
            service.requests_total, service.responses_total,
            service.flushes_total, service.flushed_requests_total,
            self.connections_total,
            service.admitted_total, service.rejected_total))

    async def _respond(self, method: str, path: str, body: bytes
                       ) -> Tuple[int, Dict[str, Any]]:
        if path.split("?", 1)[0] == "/healthz":
            if method not in ("GET", "HEAD"):
                return 405, error_response("use GET for /healthz")
            payload = self.service.status()
            payload["connections_total"] = self.connections_total
            payload["request_cache_hits"] = self.request_cache_hits
            if self.fleet is not None:
                # Publish first so the summed fleet block includes this very
                # probe's numbers; sibling rows are as fresh as their last
                # response (each replica publishes per response written).
                self._publish_fleet()
                payload["fleet"] = self.fleet.summary()
                payload["per_replica"] = self.fleet.per_replica()
            return 200, payload
        if path.split("?", 1)[0] == "/delta":
            if method != "POST":
                return 405, error_response("use POST for /delta")
            try:
                payload = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                return 400, error_response(f"invalid JSON body: {exc}")
            try:
                return 200, await self.service.apply_delta(payload)
            except SpecificationError as exc:
                return 400, error_response(str(exc))
            except ReproError as exc:
                return 400, error_response(str(exc))
        if path.split("?", 1)[0] != "/solve":
            return 404, error_response(f"unknown path {path!r}; "
                                       "use POST /solve, POST /delta or "
                                       "GET /healthz")
        if method != "POST":
            return 405, error_response("use POST for /solve")
        digest = hashlib.blake2b(body, digest_size=16).digest()
        request = self._parsed_requests.get(digest)
        if request is not None and not self.service.interner.holds(
                request.network_ref, request.instance.network):
            del self._parsed_requests[digest]
            request = None
        if request is not None:
            self.request_cache_hits += 1
            self._parsed_requests.move_to_end(digest)
        else:
            try:
                payload = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                return 400, error_response(f"invalid JSON body: {exc}")
            try:
                request = SolveRequest.from_wire(
                    payload, interner=self.service.interner,
                    default_solver=self.service.config.default_solver)
            except SpecificationError as exc:
                return 400, error_response(str(exc))
            except ReproError as exc:  # pragma: no cover - defensive
                return 400, error_response(str(exc))
            self._admit(digest, request)
        return 200, await self.service.submit(request)

    def _admit(self, digest: bytes, request: SolveRequest) -> None:
        """Cache ``request`` if its body was seen before, else remember it."""
        if digest in self._seen_once:
            del self._seen_once[digest]
            self._parsed_requests[digest] = request
            if len(self._parsed_requests) > PARSE_CACHE_SIZE:
                self._parsed_requests.popitem(last=False)
        else:
            self._seen_once[digest] = None
            if len(self._seen_once) > PARSE_CACHE_SIZE:
                self._seen_once.popitem(last=False)

    async def _write_json(self, writer: "asyncio.StreamWriter", status: int,
                          payload: Dict[str, Any], *,
                          keep_alive: bool = True) -> None:
        reasons = {200: "OK", 400: "Bad Request", 404: "Not Found",
                   405: "Method Not Allowed", 413: "Payload Too Large",
                   500: "Internal Server Error"}
        # Every response names the replica that served it — per-replica
        # attribution for clients and the open-loop loadtest report.
        payload.setdefault("replica_id", self.replica_id)
        self._publish_fleet()
        body = json.dumps(payload).encode("utf-8")
        connection = "keep-alive" if keep_alive else "close"
        head = (f"HTTP/1.1 {status} {reasons.get(status, 'Unknown')}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: {connection}\r\n\r\n").encode("ascii")
        writer.write(head + body)
        await writer.drain()


class _HttpError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _keep_alive_requested(version: str, headers: Mapping[str, str]) -> bool:
    """HTTP/1.1 defaults to keep-alive unless ``Connection: close``;
    HTTP/1.0 must opt in with ``Connection: keep-alive``."""
    connection = headers.get("connection", "").lower()
    if version == "HTTP/1.0":
        return "keep-alive" in connection
    return "close" not in connection


async def _read_http_request(reader: "asyncio.StreamReader", *,
                             max_body_bytes: int
                             ) -> Optional[Tuple[str, str, bytes, bool]]:
    """Parse one HTTP/1.x request: ``(method, path, body, keep_alive)``.

    Returns ``None`` on a clean EOF before any request bytes — a keep-alive
    client closing its idle connection, not an error.  Bodies longer than
    ``max_body_bytes`` raise a 413 :class:`_HttpError` *before* any body
    byte is buffered.
    """
    # One readuntil per request: the whole head (request line + headers) in a
    # single await instead of a readline round-trip per line — this parser is
    # the per-request floor of the keep-alive hot path.  Stray blank lines
    # between keep-alive requests (RFC 9112 §2.2) parse as empty head blocks
    # and are retried a bounded number of times.
    lines = []
    for _ in range(4):
        try:
            block = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            if not exc.partial.strip(b"\r\n"):
                return None  # clean EOF between requests: client is done
            raise _HttpError(400, "truncated request head") from None
        except asyncio.LimitOverrunError:
            raise _HttpError(400, "request head too large") from None
        lines = [line for line in block[:-4].split(b"\r\n") if line.strip()]
        if lines:
            break
    if not lines:
        raise _HttpError(400, "empty request")
    line = lines[0].decode("latin-1")
    parts = line.split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise _HttpError(400, f"malformed request line {line!r}")
    method, path, version = parts[0].upper(), parts[1], parts[2]
    headers: Dict[str, str] = {}
    for raw in lines[1:]:
        name, _sep, value = raw.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    content_length = 0
    if "content-length" in headers:
        try:
            content_length = int(headers["content-length"])
        except ValueError:
            raise _HttpError(
                400, f"bad Content-Length {headers['content-length']!r}")
    if content_length < 0:
        raise _HttpError(400, f"bad Content-Length {content_length}")
    if content_length > max_body_bytes:
        raise _HttpError(413, f"body of {content_length} bytes refused "
                              f"(limit {max_body_bytes}; raise "
                              "ServiceConfig.max_body_bytes to serve larger "
                              "instances)")
    body = (await reader.readexactly(content_length)
            if content_length else b"")
    return method, path, body, _keep_alive_requested(version, headers)


async def serve(config: Optional[ServiceConfig] = None, *,
                host: str = "127.0.0.1", port: int = 8423,
                stop: Optional["asyncio.Event"] = None,
                ready: Optional["threading.Event"] = None,
                announce=None) -> SolveServer:
    """Start a server and run it until ``stop`` is set (forever if ``None``).

    ``ready`` (a *threading* event) is set once the port is bound —
    :class:`BackgroundServer` and the CLI use it/`announce` to publish the
    resolved port before the first request can arrive.
    """
    server = SolveServer(SolveService(config), host=host, port=port)
    await server.start()
    if announce is not None:
        announce(server)
    if ready is not None:
        ready.set()
    await server.serve_until(stop if stop is not None else asyncio.Event())
    return server


class BackgroundServer:
    """Run a :class:`SolveServer` on a daemon thread (tests, benchmarks).

    Context manager::

        with BackgroundServer(ServiceConfig(max_batch=8)) as server:
            client = server.client()
            response = client.solve(instance)

    Exit shuts the server down gracefully (queue drained).
    """

    def __init__(self, config: Optional[ServiceConfig] = None, *,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.config = config
        self.host = host
        self.port = port
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional["asyncio.AbstractEventLoop"] = None
        self._stop: Optional["asyncio.Event"] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self.server: Optional[SolveServer] = None

    def start(self) -> "BackgroundServer":
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-serve")
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._startup_error is not None:
            raise self._startup_error
        if not self._ready.is_set():
            raise SpecificationError("background server failed to start in 30s")
        return self

    def _run(self) -> None:
        async def main() -> None:
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            try:
                await serve(self.config, host=self.host, port=self.port,
                            stop=self._stop, ready=self._ready,
                            announce=self._announce)
            except BaseException as exc:
                self._startup_error = exc
                self._ready.set()
                raise

        try:
            asyncio.run(main())
        except BaseException:
            if not self._ready.is_set():  # pragma: no cover - startup race
                self._ready.set()

    def _announce(self, server: SolveServer) -> None:
        self.server = server
        self.port = server.port

    def stop(self) -> None:
        """Graceful shutdown: drain the queue, join the thread."""
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=60)
            self._thread = None

    def client(self, **kwargs):
        """A :class:`~repro.service.client.ServiceClient` for this server."""
        from .client import ServiceClient

        return ServiceClient(host=self.host, port=self.port, **kwargs)

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
