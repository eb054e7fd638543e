"""Drive one ``repro serve`` process over two keep-alive connections.

The generator is this process: the main thread and one worker thread, each
owning one raw keep-alive socket.  Request bodies are encoded before the
measured window opens, so the generator's own CPU per request is a socket
write, a socket read and a substring check.
"""

from __future__ import annotations

import itertools
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Sequence, Tuple

_CLK_TCK = os.sysconf("SC_CLK_TCK")


# --------------------------------------------------------------------------- #
# /proc readings
# --------------------------------------------------------------------------- #
def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds consumed so far by process ``pid``."""
    with open(f"/proc/{pid}/stat", "rb") as handle:
        fields = handle.read().rsplit(b")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def proc_hwm_mb(pid) -> float:
    """Peak resident set size (``VmHWM``) of ``pid`` (or ``"self"``), MB."""
    with open(f"/proc/{pid}/status", "rb") as handle:
        for line in handle:
            if line.startswith(b"VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


# --------------------------------------------------------------------------- #
# HTTP
# --------------------------------------------------------------------------- #
class Connection:
    """One keep-alive HTTP/1.1 socket with ``Content-Length`` framing."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""

    def close(self) -> None:
        self.sock.close()

    def exchange(self, method: bytes, path: bytes, body: bytes = b""
                 ) -> Tuple[int, bytes]:
        head = (method + b" " + path + b" HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                b"Content-Type: application/json\r\nContent-Length: "
                + str(len(body)).encode() + b"\r\n\r\n")
        self.sock.sendall(head + body)
        buffer = self._buffer
        while b"\r\n\r\n" not in buffer:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            buffer += chunk
        head_bytes, _sep, buffer = buffer.partition(b"\r\n\r\n")
        status = int(head_bytes[9:12])
        start = head_bytes.index(b"Content-Length: ") + 16
        length = int(head_bytes[start:head_bytes.index(b"\r\n", start)])
        while len(buffer) < length:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed mid-response")
            buffer += chunk
        self._buffer = buffer[length:]
        return status, buffer[:length]


def response_ok(status: int, payload: bytes) -> bool:
    return status == 200 and b'"ok": true' in payload


# --------------------------------------------------------------------------- #
# Server process
# --------------------------------------------------------------------------- #
class ServerProcess:
    """``python -m repro.cli serve --port 0 ...`` as a child process."""

    def __init__(self, root: str, args: Sequence[str], log_path: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--host",
             "127.0.0.1", "--port", "0", *args],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=self._log)
        line = self.proc.stdout.readline().decode("utf-8", "replace")
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"repro serve did not start (exit "
                               f"{self.proc.returncode}); see {log_path}")
        self.port = int(line.split("listening on ", 1)[1].split()[0]
                        .rsplit(":", 1)[1])

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; SIGKILL if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc.stdout.close()
        self._log.close()


# --------------------------------------------------------------------------- #
# Load phases
# --------------------------------------------------------------------------- #
#: One operation: (kind, due, sent, done, ok) with times from perf_counter.
#: ``due`` is the scheduled instant (open loop) or the send instant (closed).
Record = Tuple[str, float, float, float, bool]

#: Performs operation number ``op`` on a connection: (kind, ok).
OpFn = Callable[[Connection, int], Tuple[str, bool]]


@dataclass
class PhaseResult:
    records: List[Record]
    wall_s: float
    server_cpu_s: float
    client_cpu_s: float
    #: Open loop only: generator lateness per op — how long past
    #: max(due instant, the moment a connection was free) the send happened.
    lags_s: List[float] = field(default_factory=list)


def _run_two(conns: Sequence[Connection], work: Callable[[int, Connection],
                                                         None]) -> None:
    """Run ``work`` on the main thread and one worker thread, one
    connection each; re-raise the worker's exception."""
    errors: List[BaseException] = []

    def worker() -> None:
        try:
            work(1, conns[1])
        except BaseException as exc:  # re-raised on the main thread
            errors.append(exc)

    thread = threading.Thread(target=worker, name="perfbench-conn-1")
    thread.start()
    try:
        work(0, conns[0])
    finally:
        thread.join()
    if errors:
        raise errors[0]


def closed_loop(conns: Sequence[Connection], ops: "itertools.count",
                op_fn: OpFn, seconds: float, server_pid: int) -> PhaseResult:
    """Two clients, each sending its next operation when the last returns."""
    records: List[List[Record]] = [[], []]
    cpu0, client0 = proc_cpu_s(server_pid), time.process_time()
    start = time.perf_counter()
    deadline = start + seconds

    def work(index: int, conn: Connection) -> None:
        mine = records[index]
        clock = time.perf_counter
        while True:
            sent = clock()
            if sent >= deadline:
                return
            kind, ok = op_fn(conn, next(ops))
            mine.append((kind, sent, sent, clock(), ok))

    _run_two(conns, work)
    wall = time.perf_counter() - start
    return PhaseResult(records=records[0] + records[1], wall_s=wall,
                       server_cpu_s=proc_cpu_s(server_pid) - cpu0,
                       client_cpu_s=time.process_time() - client0)


def open_loop(conns: Sequence[Connection], ops: "itertools.count",
              op_fn: OpFn, schedule: Sequence[float],
              server_pid: int) -> PhaseResult:
    """Seeded arrivals over two connections, timed from each due instant.

    Each connection claims the next unclaimed arrival when it is free, waits
    for its due instant and sends; an arrival due while both connections are
    busy waits, and that wait counts in its latency.
    """
    records: List[List[Record]] = [[], []]
    lags: List[List[float]] = [[], []]
    claims = itertools.count()
    cpu0, client0 = proc_cpu_s(server_pid), time.process_time()
    start = time.perf_counter() + 0.01

    def work(index: int, conn: Connection) -> None:
        mine, my_lags = records[index], lags[index]
        clock = time.perf_counter
        while True:
            claim = next(claims)
            if claim >= len(schedule):
                return
            due = start + schedule[claim]
            free = clock()
            if due > free:
                time.sleep(due - free)
            sent = clock()
            my_lags.append(sent - max(due, free))
            kind, ok = op_fn(conn, next(ops))
            mine.append((kind, due, sent, clock(), ok))

    _run_two(conns, work)
    wall = time.perf_counter() - start
    return PhaseResult(records=records[0] + records[1], wall_s=wall,
                       server_cpu_s=proc_cpu_s(server_pid) - cpu0,
                       client_cpu_s=time.process_time() - client0,
                       lags_s=lags[0] + lags[1])


def null_rtt_us(conn: Connection, count: int = 400) -> List[float]:
    """Round trips of an unknown path: a 404 with no decode and no solve."""
    out = []
    for _ in range(count):
        start = time.perf_counter()
        status, _body = conn.exchange(b"GET", b"/perfbench-null")
        out.append((time.perf_counter() - start) * 1e6)
        if status != 404:
            raise RuntimeError(f"null request answered {status}, not 404")
    return out
