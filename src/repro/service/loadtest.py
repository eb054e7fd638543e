"""Load-test harness for the solve service (``repro loadtest``).

Two traffic models against a running server:

* **closed-loop** (default): N concurrent clients, each posting its next
  request the moment its previous response arrives — the classic
  capacity-measuring benchmark model.  Each client thread owns one
  keep-alive :class:`~repro.service.client.ServiceClient`.
* **open-loop** (``arrival_rate=`` or ``trace=``): requests fire on an
  *arrival schedule* that does not care how fast the server answers — a
  seeded Poisson process (:func:`poisson_schedule`, deterministic under
  ``seed``) or a recorded JSONL trace **with timestamps**
  (:func:`load_trace`), replayed in timestamp order.  This is the model that
  reproduces bursty production arrivals: when the server falls behind, the
  backlog shows up as *schedule lag* (fire-time minus scheduled-time)
  instead of silently throttling the offered load the way closed-loop
  clients do.  The client side is a **bounded worker pool** multiplexing
  ``max_connections`` keep-alive connections — the offered rate is set by
  the schedule, not by a thread per simulated client, so thousands of
  arrivals per second need only a few dozen sockets.

Reported either way: per-request latency (mean / p50 / p99 / max — tiny
samples are reported with their ``n`` and high percentiles clamp to the max
instead of pretending to resolve a tail the sample cannot support),
throughput over the measured window, the achieved ``solve_many`` group size,
server-side ``/healthz`` deltas, and — new with pre-fork replicas
(``repro serve --replicas N``) — **per-replica attribution** from the
``replica_id`` every response carries.

Results render as a table (:meth:`LoadtestResult.table_text`) and serialise
into the ``repro-bench/1`` JSON schema (:meth:`LoadtestResult.to_bench_json`)
so ``benchmarks/check_regression.py`` and the CI bench gate can consume
loadtest numbers exactly like every other benchmark's.
"""

from __future__ import annotations

import json
import math
import queue
import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.mapping import Objective
from ..exceptions import ReproError, SpecificationError
from ..model.serialization import ProblemInstance
from .client import ServiceClient

__all__ = ["LoadtestResult", "generate_workload", "load_workload",
           "load_trace", "poisson_schedule", "run_loadtest"]

#: Schema tag of the JSON emitted by ``repro loadtest --emit-json`` — the
#: same one ``repro bench --emit-json`` and ``check_regression.py`` speak.
BENCH_JSON_SCHEMA = "repro-bench/1"


def generate_workload(count: int = 64, *, n_modules: int = 20,
                      n_nodes: int = 24, n_links: int = 60,
                      seed: int = 5) -> List[ProblemInstance]:
    """``count`` random pipelines over one shared network (the coalescing
    shape); the dense view is prebuilt so the first flush is not a cold one."""
    from ..generators.network_gen import random_network, random_request
    from ..generators.pipeline_gen import random_pipeline

    if count < 1:
        raise SpecificationError(f"workload count must be >= 1, got {count!r}")
    network = random_network(n_nodes, n_links, seed=seed)
    instances = [
        ProblemInstance(
            pipeline=random_pipeline(n_modules, seed=seed * 1000 + 101 + i),
            network=network,
            request=random_request(network, seed=seed * 1000 + 701 + i,
                                   min_hop_distance=2),
            name=f"loadtest-{i}")
        for i in range(count)
    ]
    network.dense_view()
    return instances


def load_workload(path: Path) -> List[ProblemInstance]:
    """A recorded workload: one ``ProblemInstance.to_dict`` payload per JSONL
    line (blank lines skipped), replayed round-robin by the clients."""
    instances: List[ProblemInstance] = []
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SpecificationError(f"cannot read workload {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            instances.append(ProblemInstance.from_dict(json.loads(line)))
        except Exception as exc:
            raise SpecificationError(
                f"{path}:{lineno}: bad instance payload: {exc}") from exc
    if not instances:
        raise SpecificationError(f"workload {path} holds no instances")
    return instances


def load_trace(path: Path) -> List[Tuple[float, ProblemInstance]]:
    """A recorded open-loop trace: JSONL lines of
    ``{"t": <seconds>, "instance": <ProblemInstance.to_dict>}``.

    ``t`` is the arrival offset in seconds from the start of the replay
    (``"timestamp"`` is accepted as an alias).  Entries are replayed in
    timestamp order — the returned schedule is stably sorted by ``t``, so
    simultaneous arrivals keep their file order.  Errors are located by
    ``path:lineno``; blank lines are skipped.
    """
    entries: List[Tuple[float, int, ProblemInstance]] = []
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SpecificationError(f"cannot read trace {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SpecificationError(
                f"{path}:{lineno}: bad trace JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise SpecificationError(
                f"{path}:{lineno}: trace entry must be an object, got "
                f"{type(payload).__name__}")
        stamp = payload.get("t", payload.get("timestamp"))
        if not isinstance(stamp, (int, float)) or isinstance(stamp, bool) \
                or not math.isfinite(stamp) or stamp < 0:
            raise SpecificationError(
                f"{path}:{lineno}: trace entry needs a finite non-negative "
                f"'t' (seconds offset), got {stamp!r}")
        instance_payload = payload.get("instance")
        if not isinstance(instance_payload, dict):
            raise SpecificationError(
                f"{path}:{lineno}: trace entry needs an 'instance' object "
                "(ProblemInstance.to_dict output)")
        try:
            instance = ProblemInstance.from_dict(instance_payload)
        except Exception as exc:
            raise SpecificationError(
                f"{path}:{lineno}: bad instance payload: {exc}") from exc
        entries.append((float(stamp), lineno, instance))
    if not entries:
        raise SpecificationError(f"trace {path} holds no entries")
    # Stable sort on the timestamp alone: equal stamps replay in file order.
    entries.sort(key=lambda entry: entry[0])
    return [(stamp, instance) for stamp, _lineno, instance in entries]


def poisson_schedule(rate: float, duration_s: float, *,
                     seed: int = 0) -> List[float]:
    """Poisson arrival offsets (seconds) over ``[0, duration_s)``.

    Inter-arrival gaps are i.i.d. exponential with mean ``1/rate``, drawn
    from ``random.Random(seed)`` — the same seed always reproduces the
    identical schedule, which is what makes open-loop runs comparable
    across server configurations.
    """
    if not math.isfinite(rate) or rate <= 0:
        raise SpecificationError(
            f"arrival rate must be a positive req/s figure, got {rate!r}")
    if not math.isfinite(duration_s) or duration_s <= 0:
        raise SpecificationError(
            f"duration_s must be > 0, got {duration_s!r}")
    rng = random.Random(seed)
    offsets: List[float] = []
    t = rng.expovariate(rate)
    while t < duration_s:
        offsets.append(t)
        t += rng.expovariate(rate)
    return offsets


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Percentile of an ascending sequence, honest about tiny samples.

    Linear interpolation needs roughly ``100 / (100 - q)`` samples before
    the ``q``-th percentile is distinguishable from the maximum (p99 of 12
    requests is just the max wearing a lab coat).  Below that the value is
    *clamped to the max* instead of interpolated — callers report ``n``
    alongside so the reader can judge the tail's resolution
    (:func:`_percentile_is_clamped`).
    """
    if not sorted_values:
        return 0.0
    if _percentile_is_clamped(len(sorted_values), q):
        return sorted_values[-1]
    position = (len(sorted_values) - 1) * q / 100.0
    lower = math.floor(position)
    upper = min(lower + 1, len(sorted_values) - 1)
    fraction = position - lower
    return (sorted_values[lower]
            + (sorted_values[upper] - sorted_values[lower]) * fraction)


def _percentile_is_clamped(n: int, q: float) -> bool:
    """Whether a sample of ``n`` is too small to resolve the ``q``-th
    percentile (in which case :func:`_percentile` reports the max)."""
    return n * (100.0 - q) < 100.0


@dataclass
class LoadtestResult:
    """One load-test run's measurements (see module docstring)."""

    clients: int
    duration_s: float
    solver: str
    objective: Objective
    #: ``"closed"`` (self-clocked clients) or ``"open"`` (arrival schedule).
    mode: str = "closed"
    requests_total: int = 0
    errors_total: int = 0
    throughput_rps: float = 0.0
    latency_mean_ms: float = 0.0
    latency_stddev_ms: float = 0.0
    latency_p50_ms: float = 0.0
    latency_p99_ms: float = 0.0
    latency_max_ms: float = 0.0
    #: Open-loop only: the schedule's offered request rate and the *schedule
    #: lag* — how long past its scheduled instant each request actually
    #: fired (queueing in the bounded worker pool = server backpressure made
    #: visible).
    offered_rps: float = 0.0
    scheduled_total: int = 0
    lag_ms_mean: float = 0.0
    lag_ms_p99: float = 0.0
    lag_ms_max: float = 0.0
    #: Request-weighted mean of the responses' ``group_size`` — how many
    #: requests the average *request* shared its solve_many group with.
    mean_group_size: float = 0.0
    #: Responses per serving replica (``replica_id`` → count); a single
    #: replica shows everything under ``"0"``.
    per_replica: Dict[str, int] = field(default_factory=dict)
    #: Server-side ``/healthz`` deltas over the measured window.
    server: Dict[str, float] = field(default_factory=dict)
    #: ``(instance_index, response)`` pairs, kept when ``keep_responses=True``
    #: (the bit-identity assertions of the loadtest benchmarks use them).
    responses: Optional[List[Tuple[int, Dict[str, Any]]]] = None

    def table_text(self) -> str:
        n = self.requests_total
        if self.mode == "open":
            headline = (f"loadtest: open-loop, {self.scheduled_total} "
                        f"scheduled arrivals at {self.offered_rps:,.1f} "
                        f"req/s offered over {self.clients} pooled "
                        f"connection(s)")
        else:
            headline = (f"loadtest: {self.clients} closed-loop clients x "
                        f"{self.duration_s:.2f}s")
        clamp_note = (" (clamped to max; small n)"
                      if n and _percentile_is_clamped(n, 99.0) else "")
        lines = [
            headline + (f"  (solver={self.solver}, "
                        f"objective={self.objective.value})"),
            f"{'requests':>18}: {self.requests_total} "
            f"({self.errors_total} errors)",
            f"{'throughput':>18}: {self.throughput_rps:,.1f} req/s",
            f"{'latency mean':>18}: {self.latency_mean_ms:.3f} ms "
            f"(stddev {self.latency_stddev_ms:.3f}, n={n})",
            f"{'latency p50':>18}: {self.latency_p50_ms:.3f} ms",
            f"{'latency p99':>18}: {self.latency_p99_ms:.3f} ms{clamp_note}",
            f"{'latency max':>18}: {self.latency_max_ms:.3f} ms",
            f"{'mean group size':>18}: {self.mean_group_size:.2f} "
            "(per-request)",
        ]
        if self.mode == "open":
            lines.append(
                f"{'schedule lag':>18}: mean {self.lag_ms_mean:.3f} ms, "
                f"p99 {self.lag_ms_p99:.3f} ms, max {self.lag_ms_max:.3f} ms")
        if self.per_replica:
            share = ", ".join(
                f"replica {replica}: {count}"
                for replica, count in sorted(self.per_replica.items()))
            lines.append(f"{'per replica':>18}: {share}")
        if self.server:
            lines.append(
                f"{'server flushes':>18}: "
                f"{self.server.get('flushes', 0):.0f} "
                f"(mean size {self.server.get('mean_flush_size', 0.0):.2f}, "
                f"busy-path {self.server.get('busy_flushes', 0):.0f}, "
                f"queue wait mean "
                f"{self.server.get('queue_wait_ms_mean', 0.0):.3f} ms)")
            lines.append(
                f"{'connections':>18}: "
                f"{self.server.get('connections', 0):.0f} opened during run")
            admitted = self.server.get("admitted", 0.0)
            rejected = self.server.get("rejected", 0.0)
            if admitted or rejected:
                total = admitted + rejected
                share = rejected / total if total else 0.0
                lines.append(
                    f"{'admission':>18}: {admitted:.0f} admitted, "
                    f"{rejected:.0f} rejected "
                    f"({share:.1%} of decided requests)")
        return "\n".join(lines)

    def to_bench_json(self, *, sha: Optional[str] = None) -> Dict[str, Any]:
        """Render in the ``repro-bench/1`` schema consumed by the bench gate
        (``mean_s`` is the gated metric; ratios ride as ``extra:`` fields)."""
        metric: Dict[str, Any] = {
            "mean_s": self.latency_mean_ms / 1e3,
            "stddev_s": self.latency_stddev_ms / 1e3,
            "rounds": self.requests_total,
            "extra:throughput_rps": round(self.throughput_rps, 2),
            "extra:p50_ms": round(self.latency_p50_ms, 4),
            "extra:p99_ms": round(self.latency_p99_ms, 4),
            "extra:mean_group_size": round(self.mean_group_size, 3),
            "extra:clients": self.clients,
            "extra:errors": self.errors_total,
            "extra:open_loop": int(self.mode == "open"),
            "extra:replicas_observed": len(self.per_replica),
        }
        if self.mode == "open":
            metric["extra:offered_rps"] = round(self.offered_rps, 2)
            metric["extra:lag_p99_ms"] = round(self.lag_ms_p99, 4)
        if "mean_flush_size" in self.server:
            metric["extra:mean_flush_size"] = round(
                self.server["mean_flush_size"], 3)
        if self.server.get("admitted") or self.server.get("rejected"):
            metric["extra:admitted"] = round(self.server["admitted"], 0)
            metric["extra:rejected"] = round(self.server["rejected"], 0)
        payload: Dict[str, Any] = {
            "schema": BENCH_JSON_SCHEMA,
            "source": "repro-loadtest",
            "metrics": {"loadtest/request_latency": metric},
        }
        if sha:
            payload["sha"] = sha
        return payload


#: One measured exchange: (instance_index, latency_s, lag_s, response|None).
_Record = Tuple[int, float, float, Optional[Dict[str, Any]]]


def run_loadtest(*, host: str = "127.0.0.1", port: int = 8423,
                 clients: int = 8, duration_s: float = 2.0,
                 instances: Optional[Sequence[ProblemInstance]] = None,
                 solver: str = "elpc-tensor",
                 objective: Objective = Objective.MIN_DELAY,
                 use_network_refs: bool = True,
                 warmup: bool = True, timeout: float = 120.0,
                 keep_responses: bool = False,
                 arrival_rate: Optional[float] = None,
                 trace: Optional[Sequence[Tuple[float, ProblemInstance]]]
                 = None,
                 max_connections: int = 32,
                 seed: int = 0) -> LoadtestResult:
    """Run a load test against a running server (closed- or open-loop).

    Closed-loop (default): ``clients`` threads, each owning one
    keep-alive :class:`ServiceClient`,
    walk the workload with stride ``clients`` from their own offsets for
    ``duration_s`` — each posts again the moment its response lands.

    Open-loop: pass ``arrival_rate`` (req/s; a Poisson schedule over
    ``duration_s``, deterministic under ``seed``) or ``trace`` (the
    timestamped entries of :func:`load_trace`); requests then fire on the
    schedule regardless of how fast the server answers, dispatched by a
    bounded pool multiplexing ``max_connections`` keep-alive connections.
    The report gains the offered rate, schedule-lag stats and per-replica
    attribution; the run ends when every scheduled arrival is answered.

    A warm-up round (one solve per connection, untimed) establishes
    connections and teaches each client the server's ``network_ref`` before
    the measured window opens; ``/healthz`` is snapshotted on both sides of
    the window so the server's flush counters can be attributed to the run.

    Raises :class:`~repro.service.client.ServiceUnavailableError` when no
    server answers, and :class:`SpecificationError` on bad parameters.
    """
    if clients < 1:
        raise SpecificationError(f"clients must be >= 1, got {clients!r}")
    if duration_s <= 0:
        raise SpecificationError(
            f"duration_s must be > 0, got {duration_s!r}")
    if arrival_rate is not None and trace is not None:
        raise SpecificationError(
            "pass either arrival_rate (generated Poisson schedule) or "
            "trace (recorded timestamps), not both")
    common = dict(host=host, port=port, solver=solver, objective=objective,
                  use_network_refs=use_network_refs,
                  warmup=warmup, timeout=timeout,
                  keep_responses=keep_responses)
    if arrival_rate is not None or trace is not None:
        return _run_open_loop(arrival_rate=arrival_rate, trace=trace,
                              duration_s=duration_s, instances=instances,
                              max_connections=max_connections, seed=seed,
                              **common)
    return _run_closed_loop(clients=clients, duration_s=duration_s,
                            instances=instances, **common)


def _run_closed_loop(*, host: str, port: int, clients: int,
                     duration_s: float,
                     instances: Optional[Sequence[ProblemInstance]],
                     solver: str, objective: Objective,
                     use_network_refs: bool, warmup: bool, timeout: float,
                     keep_responses: bool) -> LoadtestResult:
    workload = list(instances) if instances is not None else generate_workload()
    if not workload:
        raise SpecificationError("empty workload")

    probe = ServiceClient(host, port, timeout=timeout)
    status_before = probe.healthz()  # raises ServiceUnavailableError if down

    barrier = threading.Barrier(clients + 1)
    stop = threading.Event()
    records: List[List[_Record]] = [[] for _ in range(clients)]
    worker_errors: List[BaseException] = []

    def worker(index: int) -> None:
        client = ServiceClient(host, port, timeout=timeout,
                               use_network_refs=use_network_refs)
        try:
            if warmup:
                try:
                    client.solve(workload[index % len(workload)],
                                 solver=solver, objective=objective)
                except ReproError:
                    pass  # the measured loop will surface persistent failures
            barrier.wait()
            position = index
            mine = records[index]
            while not stop.is_set():
                instance_index = position % len(workload)
                start = time.perf_counter()
                try:
                    response = client.solve(workload[instance_index],
                                            solver=solver,
                                            objective=objective)
                except ReproError:
                    response = None
                mine.append((instance_index, time.perf_counter() - start,
                             0.0, response))
                position += clients
        except BaseException as exc:  # pragma: no cover - harness bug guard
            worker_errors.append(exc)
            try:
                barrier.abort()
            except Exception:
                pass
        finally:
            client.close()

    threads = [threading.Thread(target=worker, args=(i,), daemon=True,
                                name=f"loadtest-{i}")
               for i in range(clients)]
    for thread in threads:
        thread.start()
    barrier.wait()
    window_start = time.perf_counter()
    time.sleep(duration_s)
    stop.set()
    for thread in threads:
        thread.join(timeout=timeout)
    window_s = time.perf_counter() - window_start
    status_after = probe.healthz()
    probe.close()
    if worker_errors:
        raise worker_errors[0]

    flat = [entry for client_records in records for entry in client_records]
    return _finalize(flat, mode="closed", clients=clients, window_s=window_s,
                     solver=solver,
                     objective=objective, status_before=status_before,
                     status_after=status_after, keep_responses=keep_responses,
                     offered_rps=0.0, scheduled_total=len(flat))


def _run_open_loop(*, host: str, port: int,
                   arrival_rate: Optional[float],
                   trace: Optional[Sequence[Tuple[float, ProblemInstance]]],
                   duration_s: float,
                   instances: Optional[Sequence[ProblemInstance]],
                   max_connections: int, seed: int,
                   solver: str, objective: Objective,
                   use_network_refs: bool, warmup: bool, timeout: float,
                   keep_responses: bool) -> LoadtestResult:
    if max_connections < 1:
        raise SpecificationError(
            f"max_connections must be >= 1, got {max_connections!r}")
    if trace is not None:
        entries = list(trace)
        if not entries:
            raise SpecificationError("empty trace")
        workload = [instance for _stamp, instance in entries]
        events = [(stamp, index) for index, (stamp, _i) in enumerate(entries)]
        horizon = max(events[-1][0], 1e-9)
    else:
        workload = (list(instances) if instances is not None
                    else generate_workload())
        if not workload:
            raise SpecificationError("empty workload")
        offsets = poisson_schedule(arrival_rate, duration_s, seed=seed)
        if not offsets:
            raise SpecificationError(
                f"arrival schedule is empty: rate {arrival_rate!r} req/s "
                f"over {duration_s!r}s produced no arrivals (seed {seed}); "
                "raise the rate or the duration")
        events = [(stamp, index % len(workload))
                  for index, stamp in enumerate(offsets)]
        horizon = duration_s
    workers = max(1, min(int(max_connections), len(events)))

    probe = ServiceClient(host, port, timeout=timeout)
    status_before = probe.healthz()  # raises ServiceUnavailableError if down

    barrier = threading.Barrier(workers + 1)
    tasks: "queue.Queue" = queue.Queue()
    records: List[List[_Record]] = [[] for _ in range(workers)]
    worker_errors: List[BaseException] = []
    start_at: List[float] = [0.0]  # window origin, set after the barrier

    def worker(index: int) -> None:
        client = ServiceClient(host, port, timeout=timeout,
                               use_network_refs=use_network_refs)
        try:
            if warmup:
                try:
                    client.solve(workload[index % len(workload)],
                                 solver=solver, objective=objective)
                except ReproError:
                    pass  # the measured loop will surface persistent failures
            barrier.wait()
            mine = records[index]
            while True:
                task = tasks.get()
                if task is None:
                    return
                offset, instance_index = task
                start = time.perf_counter()
                lag = max(0.0, start - (start_at[0] + offset))
                try:
                    response = client.solve(workload[instance_index],
                                            solver=solver,
                                            objective=objective)
                except ReproError:
                    response = None
                mine.append((instance_index, time.perf_counter() - start,
                             lag, response))
        except BaseException as exc:  # pragma: no cover - harness bug guard
            worker_errors.append(exc)
            try:
                barrier.abort()
            except Exception:
                pass
        finally:
            client.close()

    threads = [threading.Thread(target=worker, args=(i,), daemon=True,
                                name=f"loadtest-open-{i}")
               for i in range(workers)]
    for thread in threads:
        thread.start()
    barrier.wait()
    # The scheduler: sleep to each arrival's instant, then enqueue it.  The
    # pool picks it up as soon as a connection frees — any wait between
    # scheduled instant and actual fire is recorded as that request's lag.
    window_start = time.perf_counter()
    start_at[0] = window_start
    for offset, instance_index in events:
        delay = (window_start + offset) - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        tasks.put((offset, instance_index))
    for _ in range(workers):
        tasks.put(None)
    for thread in threads:
        thread.join(timeout=timeout)
    window_s = time.perf_counter() - window_start
    status_after = probe.healthz()
    probe.close()
    if worker_errors:
        raise worker_errors[0]

    flat = [entry for worker_records in records for entry in worker_records]
    return _finalize(flat, mode="open", clients=workers, window_s=window_s,
                     solver=solver,
                     objective=objective, status_before=status_before,
                     status_after=status_after, keep_responses=keep_responses,
                     offered_rps=len(events) / horizon,
                     scheduled_total=len(events))


def _finalize(flat: List[_Record], *, mode: str, clients: int,
              window_s: float, solver: str,
              objective: Objective, status_before: Dict[str, Any],
              status_after: Dict[str, Any], keep_responses: bool,
              offered_rps: float, scheduled_total: int) -> LoadtestResult:
    """Fold raw exchange records + healthz deltas into a LoadtestResult."""
    latencies_ms = sorted(latency * 1e3 for _i, latency, _lag, _r in flat)
    lags_ms = sorted(lag * 1e3 for _i, _latency, lag, _r in flat)
    ok_responses = [(i, r) for i, _latency, _lag, r in flat
                    if r is not None and r.get("ok")]
    per_replica: Dict[str, int] = {}
    for _i, _latency, _lag, response in flat:
        if response is None:
            continue
        replica = str(response.get("replica_id", "?"))
        per_replica[replica] = per_replica.get(replica, 0) + 1
    n = len(flat)
    mean_ms = sum(latencies_ms) / n if n else 0.0
    stddev_ms = (math.sqrt(sum((v - mean_ms) ** 2 for v in latencies_ms)
                           / (n - 1)) if n > 1 else 0.0)

    # Against a replica fleet the before/after probes may land on different
    # replicas, so window deltas come from the summed ``fleet`` block where
    # the counter is published fleet-wide.
    fleet_before = status_before.get("fleet") or {}
    fleet_after = status_after.get("fleet") or {}

    def delta(key: str) -> float:
        if key in fleet_after:
            return float(fleet_after.get(key, 0) or 0) \
                - float(fleet_before.get(key, 0) or 0)
        return float(status_after.get(key, 0) or 0) \
            - float(status_before.get(key, 0) or 0)

    flushes = delta("flushes_total")
    flushed = delta("flushed_requests_total")
    return LoadtestResult(
        clients=clients,
        duration_s=window_s,
        solver=solver,
        objective=objective,
        mode=mode,
        requests_total=n,
        errors_total=n - len(ok_responses),
        throughput_rps=n / window_s if window_s > 0 else 0.0,
        latency_mean_ms=mean_ms,
        latency_stddev_ms=stddev_ms,
        latency_p50_ms=_percentile(latencies_ms, 50.0),
        latency_p99_ms=_percentile(latencies_ms, 99.0),
        latency_max_ms=latencies_ms[-1] if latencies_ms else 0.0,
        offered_rps=offered_rps,
        scheduled_total=scheduled_total,
        lag_ms_mean=(sum(lags_ms) / n if n else 0.0),
        lag_ms_p99=_percentile(lags_ms, 99.0),
        lag_ms_max=lags_ms[-1] if lags_ms else 0.0,
        mean_group_size=(sum(r.get("group_size") or 0
                             for _i, r in ok_responses) / len(ok_responses)
                         if ok_responses else 0.0),
        per_replica=per_replica,
        server={
            "flushes": flushes,
            "flushed_requests": flushed,
            "mean_flush_size": flushed / flushes if flushes else 0.0,
            "busy_flushes": delta("busy_flushes_total"),
            "responses": delta("responses_total"),
            "connections": delta("connections_total"),
            "queue_wait_ms_mean": float(
                status_after.get("queue_wait_ms_mean", 0.0) or 0.0),
            # Admission deltas: fleet-block aware like every other counter
            # (under --replicas N the per-replica healthz totals reset on
            # restart, the summed fleet block does not).  Zero when the
            # server runs without --admission-control.
            "admitted": delta("admitted_total"),
            "rejected": delta("rejected_total"),
        },
        responses=[(i, r) for i, r in ok_responses] if keep_responses else None,
    )
