"""The ``serve-distinct`` and ``serve-drift`` workloads against ``repro serve``.

Phases, in order, on one server process (a single replica) and the same two
keep-alive connections: a short closed-loop warm-up, 400 null round trips,
closed loop (40% of ``--seconds``), open loop at the low fixed rate (40%),
open loop at the high fixed rate (20%), then the output checks.  The two
bounded metrics come from the first two phases, so they get most of the
time; the high-rate phase only has to support a printed p99.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import statistics
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.core.batch import solve_many
from repro.model.serialization import mapping_to_dict
from repro.service.wire import WIRE_SCHEMA

import benchlib
from offline import comparable
from serving import (Connection, ServerProcess, closed_loop, null_rtt_us,
                     open_loop, proc_hwm_mb, response_ok)
from streams import SOLVER, DeltaSequence, ServeSpec, ServeStream, sub_seed

SETUP_REPEATS = 5
WARMUP_S = 1.0
#: Every this-many-th distinct-body response is kept for the bit-identity check.
SAMPLE_EVERY = 64
#: Reference-loop repeats per host-speed probe (a probe is ~25 ms).
PROBE_REPEATS = 7
#: Tenant pipelines re-checked against the mirror after the last delta.
DRIFT_CHECKS = 16
#: Upper bound on closed-loop req/s that bodies are prepared for in advance;
#: a faster server gets the rest built on demand.
PREPARED_RPS = 600


class _Traffic:
    """Turns operation numbers into requests for one workload."""

    def __init__(self, stream: ServeStream) -> None:
        self.stream = stream
        self.ref = stream.ref
        self.deltas = (DeltaSequence(stream.network, stream.seed)
                       if stream.spec.delta_every else None)
        self._delta_lock = threading.Lock()
        self.sent: List[int] = []
        self.samples: List[Tuple[int, bytes]] = []
        self.sizes: List[Tuple[int, int]] = []

    def op(self, conn: Connection, op: int) -> Tuple[str, bool]:
        stream = self.stream
        if stream.is_delta(op):
            # Deltas are serialised so the server applies them in the order
            # the mirror did; solves on the other connection continue.
            with self._delta_lock:
                body = json.dumps({"schema": WIRE_SCHEMA, "ref": self.ref,
                                   "edits": self.deltas.next_edits()}
                                  ).encode()
                status, payload = conn.exchange(b"POST", b"/delta", body)
                ok = response_ok(status, payload)
                if ok:
                    self.ref = json.loads(payload)["network_ref"]
            return "delta", ok
        index = stream.body_index(op)
        body = stream.body(index, self.ref)
        status, payload = conn.exchange(b"POST", b"/solve", body)
        self.sent.append(hash(body))
        self.sizes.append((len(body), len(payload)))
        if stream.spec.pool is None and index % SAMPLE_EVERY == 0:
            self.samples.append((index, payload))
        return "solve", response_ok(status, payload)


def _healthz(conn: Connection) -> Dict:
    status, payload = conn.exchange(b"GET", b"/healthz")
    if status != 200:
        raise RuntimeError(f"/healthz answered {status}")
    return json.loads(payload)


def _start_server(root: str, spec: ServeSpec, stream: ServeStream,
                  log_path: str) -> Tuple[ServerProcess, Connection, float]:
    """Spawn ``repro serve`` and post the full network; returns the server,
    the connection that got the first ok response, and the seconds from
    spawn to that response."""
    start = time.perf_counter()
    server = ServerProcess(root, spec.serve_args, log_path)
    try:
        conn = Connection(server.port)
        status, payload = conn.exchange(b"POST", b"/solve", stream.first_body)
    except BaseException:
        server.stop()
        raise
    elapsed = time.perf_counter() - start
    if not response_ok(status, payload):
        conn.close()
        server.stop()
        raise RuntimeError(f"first solve failed: {payload[:300]!r}")
    return server, conn, elapsed


def _latencies_ms(records, kind: str, since_due: bool = True) -> List[float]:
    return [(done - (due if since_due else sent)) * 1e3
            for k, due, sent, done, _ok in records if k == kind]


def run(spec: ServeSpec, seed: int, seconds: float, trace: bool,
        root: str, log_dir: str) -> Dict:
    closed_s, low_s, high_s = 0.4 * seconds, 0.4 * seconds, 0.2 * seconds
    low = benchlib.poisson_schedule(spec.low_rps, low_s,
                                    sub_seed(seed, "low-arrivals"))
    high = benchlib.poisson_schedule(spec.high_rps, high_s,
                                     sub_seed(seed, "high-arrivals"))
    stream = ServeStream.build(spec, seed)
    if spec.pool is None:
        stream.extend(int((WARMUP_S + closed_s) * PREPARED_RPS)
                      + len(low) + len(high))
    log_path = os.path.join(log_dir, f"{spec.name}-server.log")

    setups: List[float] = []
    server: Optional[ServerProcess] = None
    conns: List[Connection] = []
    try:
        for attempt in range(SETUP_REPEATS):
            server, conn, elapsed = _start_server(root, spec, stream,
                                                  log_path)
            setups.append(elapsed)
            if attempt < SETUP_REPEATS - 1:
                conn.close()
                server.stop()
                server = None
            else:
                conns = [conn, Connection(server.port)]
        return _measure(spec, stream, server, conns, setups, low, high,
                        closed_s, trace)
    finally:
        for conn in conns:
            conn.close()
        if server is not None:
            server.stop()


def _measure(spec: ServeSpec, stream: ServeStream, server: ServerProcess,
             conns: List[Connection], setups: List[float], low, high,
             closed_s: float, trace: bool) -> Dict:
    problems: List[str] = []
    traffic = _Traffic(stream)
    ops = itertools.count()
    pid = server.pid
    warm = closed_loop(conns, ops, traffic.op, WARMUP_S, pid)
    before = _healthz(conns[0])
    null_rtts = null_rtt_us(conns[0])
    # The host's speed, probed while the server idles between phases.  It
    # is reported, not divided out: the server process slowed by more than
    # this probe did, and dividing it out widened the spreads (NOTES.md).
    probes = [benchlib.reference_loop_s(PROBE_REPEATS)]
    closed = closed_loop(conns, ops, traffic.op, closed_s, pid)
    probes.append(benchlib.reference_loop_s(PROBE_REPEATS))
    low_phase = open_loop(conns, ops, traffic.op, low, pid)
    probes.append(benchlib.reference_loop_s(PROBE_REPEATS))
    high_phase = open_loop(conns, ops, traffic.op, high, pid)
    probes.append(benchlib.reference_loop_s(PROBE_REPEATS))
    after = _healthz(conns[0])
    slowdown = statistics.median(probes) / benchlib.REFERENCE_NOMINAL_S
    phases = (warm, closed, low_phase, high_phase)
    attempted = sum(len(p.records) for p in phases)
    failed = sum(1 for p in phases for r in p.records if not r[4])

    # Output checks and workload guards.
    if spec.pool is None:
        _check_distinct(stream, traffic, problems)
        if len(set(traffic.sent)) != len(traffic.sent):
            problems.append("guard: a request body repeated within the run")
    else:
        _check_drift(stream, traffic, conns[0], after, problems)
    requests = after["requests_total"] - before["requests_total"]
    hit_ratio = ((after["request_cache_hits"] - before["request_cache_hits"])
                 / requests)
    if spec.pool is None and hit_ratio >= 0.01:
        problems.append(f"guard: parse-cache hit ratio {hit_ratio:.4f} "
                        ">= 0.01 on distinct bodies")
    if after["connections_total"] != 2:
        problems.append(f"guard: server saw {after['connections_total']} "
                        "connections, expected exactly the generator's 2")
    rss = proc_hwm_mb(pid)

    closed_ops = len(closed.records)
    high_solves = _latencies_ms(high_phase.records, "solve")
    low_solves = _latencies_ms(low_phase.records, "solve")
    deltas = [lat for p in phases[1:]
              for lat in _latencies_ms(p.records, "delta", since_due=False)]
    rps = closed_ops / closed.wall_s
    p50_low = benchlib.percentile(low_solves, 50)
    if p50_low is None:
        raise RuntimeError("too few open-loop samples; raise --seconds")
    error_share = failed / attempted
    setup_s = statistics.median(setups)
    report = [("rps_closed", rps, "req/s",
               f"n={closed_ops}, 2 clients")]
    for label, rate, sample in (("low", spec.low_rps, low_solves),
                                ("high", spec.high_rps, high_solves)):
        for q in (50, 90, 99):
            value = benchlib.percentile(sample, q)
            if value is not None:
                report.append((f"p{q}_ms_{label}", value, "ms",
                               f"n={len(sample)} at {rate:g} req/s"))
    if deltas:
        report.append(("delta_p50_ms", statistics.median(deltas), "ms",
                       f"n={len(deltas)}"))
    report += [
        ("error_share", error_share, "share", f"n={attempted}"),
        ("setup_s", setup_s, "s", f"n={len(setups)}"),
        ("rss_mb", rss, "MB", "server VmHWM"),
        ("host_slowdown", slowdown, "x",
         f"median of {len(probes)} probes between phases"),
    ]
    out = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "end_to_end": {
            "throughput_per_s": (rps, "1/s"),
            "p50_ms": (p50_low, "ms"),
            "ok_share": (1.0 - error_share, "share"),
            "setup_s": (setup_s, "s"),
            "rss_mb": (rss, "MB"),
        },
        "report": report,
    }
    if trace:
        import tracing

        flushes = after["flushes_total"] - before["flushes_total"]
        flushed = (after["flushed_requests_total"]
                   - before["flushed_requests_total"])
        wait_ms = (after["queue_wait_ms_mean"] * after["flushed_requests_total"]
                   - before["queue_wait_ms_mean"]
                   * before["flushed_requests_total"]) / flushed
        admitted = after["admitted_total"] - before["admitted_total"]
        rejected = after["rejected_total"] - before["rejected_total"]
        patches = after["delta_patches_total"]
        lags = [lag * 1e3 for p in (low_phase, high_phase) for lag in p.lags_s]
        layers = dict.fromkeys(tracing.LAYER_METRICS, 0.0)
        layers.update({
            "server.null_rtt_us": statistics.median(null_rtts),
            "server.cpu_ms_per_req": closed.server_cpu_s * 1e3 / closed_ops,
            "server.parse_cache_hit_ratio": hit_ratio,
            "server.connections": after["connections_total"],
            "wire.request_bytes": statistics.fmean(s[0] for s in traffic.sizes),
            "wire.response_bytes": statistics.fmean(s[1]
                                                    for s in traffic.sizes),
            "dispatcher.queue_wait_ms": wait_ms,
            "dispatcher.flush_size": flushed / flushes,
            "dispatcher.busy_flush_share": (
                (after["busy_flushes_total"] - before["busy_flushes_total"])
                / flushes),
            "dispatcher.admission_ledgers": after.get("admission_ledgers", 0),
            "dispatcher.admit_ratio": (admitted / (admitted + rejected)
                                       if admitted + rejected else 0.0),
            "network.patch_share": patches / (patches
                                              + after["rebuilds_total"]),
            "client.lag_p99_ms": (benchlib.percentile(lags, 99)
                                  or max(lags)),
            "client.cpu_ms_per_req": closed.client_cpu_s * 1e3 / closed_ops,
            "host.slowdown": slowdown,
        })
        layers.update(tracing.serve_layers(
            stream, n_ops=min(attempted, 1000),
            group=max(1, round(flushed / flushes)),
            server_cpu_ms_per_req=layers["server.cpu_ms_per_req"]))
        out["layers"] = layers
    return out


def _same_mapping(served: Optional[Dict], item) -> bool:
    """A served mapping equals a direct solve's, compared through JSON."""
    if served is None or item.mapping is None:
        return False
    expected = json.loads(json.dumps(mapping_to_dict(item.mapping)))
    return comparable(served) == comparable(expected)


def _check_distinct(stream: ServeStream, traffic: _Traffic,
                    problems: List[str]) -> None:
    """Sampled responses equal a direct ``solve_many`` bit for bit."""
    if not traffic.samples:
        problems.append("no sampled responses to check")
        return
    indices = [index for index, _payload in traffic.samples]
    direct = solve_many([stream.instance(i, stream.network) for i in indices],
                        solver=SOLVER, objective=stream.spec.objective)
    for (index, payload), item in zip(traffic.samples, direct.items):
        if not _same_mapping(json.loads(payload).get("mapping"), item):
            problems.append(f"body {index}: served mapping differs from a "
                            "direct solve_many")


def _check_drift(stream: ServeStream, traffic: _Traffic, conn: Connection,
                 health: Dict, problems: List[str]) -> None:
    """No admission refusals, and after the last delta the served plans
    equal ``solve_many`` on the client's mirror of the edited network."""
    if health.get("rejected_total", 0) != 0:
        problems.append(f"rejected_total is {health['rejected_total']}, "
                        "expected 0 at the admit-everything factor")
    if traffic.deltas.count == 0:
        problems.append("no delta was applied")
        return
    rng = random.Random(sub_seed(stream.seed, "drift-checks"))
    indices = rng.sample(range(stream.spec.pool), DRIFT_CHECKS)
    served = []
    for index in indices:
        status, payload = conn.exchange(b"POST", b"/solve",
                                        stream.body(index, traffic.ref))
        served.append(json.loads(payload).get("mapping")
                      if response_ok(status, payload) else None)
    direct = solve_many([stream.instance(i, traffic.deltas.mirror)
                         for i in indices],
                        solver=SOLVER, objective=stream.spec.objective)
    for index, got, item in zip(indices, served, direct.items):
        if not _same_mapping(got, item):
            problems.append(f"tenant {index}: served plan after the last "
                            "delta differs from solve_many on the mirror")
