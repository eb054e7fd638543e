"""The traced run: replay a workload's seeded stream in-process, with spans.

The replay makes the server's calls in the server's order —
``json.loads`` → ``SolveRequest.from_wire`` against a ``NetworkInterner`` →
``solve_many`` per group of the measured mean flush size →
``ClusterState.demand_of``/``commit`` in priority order →
``item_result_to_wire`` → ``json.dumps`` — plus ``apply_delta`` and
``rebase`` for deltas, recording a span around each call.  The same replay
runs three times untraced (a no-op span object) and three times traced,
alternating; the difference of the medians is the tracing overhead.  Layers
that a workload never runs report 0.
"""

from __future__ import annotations

import json
import statistics
import time
from typing import Dict, List

from repro.core.batch import solve_many
from repro.core.mapping import Objective
from repro.model.network import TransportNetwork
from repro.placement import ClusterState
from repro.service.wire import (WIRE_SCHEMA, NetworkInterner, SolveRequest,
                                item_result_to_wire)

import benchlib
from streams import (ADMIT_ALL_FACTOR, SOLVER, BatchStream, ChurnSequence,
                     DeltaSequence, ServeStream)

#: Every per-layer metric and its unit, in report order.  A workload
#: reports 0 for a layer it never exercises.
LAYER_METRICS = {
    "server.null_rtt_us": "us",
    "server.cpu_ms_per_req": "ms",
    "server.parse_cache_hit_ratio": "share",
    "server.connections": "count",
    "wire.decode_us": "us",
    "wire.from_wire_us": "us",
    "wire.encode_us": "us",
    "wire.delta_us": "us",
    "wire.interner_hit_ratio": "share",
    "wire.request_bytes": "bytes",
    "wire.response_bytes": "bytes",
    "dispatcher.queue_wait_ms": "ms",
    "dispatcher.flush_size": "count",
    "dispatcher.busy_flush_share": "share",
    "dispatcher.admission_ledgers": "count",
    "dispatcher.admit_ratio": "share",
    "batch.solve_us_per_item.delay": "us",
    "batch.solve_us_per_item.framerate": "us",
    "batch.group_size": "count",
    "batch.failed_items": "count",
    "warm.resolve_us_per_item": "us",
    "warm.reused_share": "share",
    "network.dense_view_build_ms": "ms",
    "network.patch_share": "share",
    "ledger.commit_us": "us",
    "ledger.rebase_us": "us",
    "client.lag_p99_ms": "ms",
    "client.cpu_ms_per_req": "ms",
    "trace.overhead_share": "share",
    "trace.span_cover_share": "share",
    "host.slowdown": "x",
}

_OBJECTIVE_TAG = {Objective.MIN_DELAY: "delay",
                  Objective.MAX_FRAME_RATE: "framerate"}


def _mean_self_us(totals: Dict, name: str, per: int = 0) -> float:
    """Mean self time of span ``name`` in µs (per ``per`` items if given)."""
    count, total_ns = totals.get(name, (0, 0))
    divisor = per or count
    return total_ns / 1e3 / divisor if divisor else 0.0


def _dense_view_build_ms(payloads: List[Dict], repeats: int = 5) -> float:
    """Median time to build the dense views of fresh copies of the
    workload's networks (summed over its networks)."""
    samples = []
    for _ in range(repeats):
        fresh = [TransportNetwork.from_dict(p) for p in payloads]
        start = time.perf_counter()
        for network in fresh:
            network.dense_view()
        samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples)


# --------------------------------------------------------------------------- #
# serve-*
# --------------------------------------------------------------------------- #
def _replay_serve(stream: ServeStream, n_ops: int, group: int, tracer
                  ) -> Dict:
    spec = stream.spec
    admission = spec.delta_every > 0
    interner = NetworkInterner()
    first = SolveRequest.from_wire(json.loads(stream.first_body),
                                   interner=interner, default_solver=SOLVER)
    ref = first.network_ref
    deltas = DeltaSequence(stream.network, stream.seed) if admission else None
    ledgers: Dict[str, ClusterState] = {}
    pending: List = []
    counts = {"items": 0, "failed": 0}

    def flush(flush_id: int) -> None:
        if not pending:
            return
        with tracer.span("dispatcher.flush", flush_id):
            with tracer.span("batch.solve." + _OBJECTIVE_TAG[spec.objective],
                             flush_id):
                result = solve_many([r.instance for _k, r in pending],
                                    solver=SOLVER, objective=spec.objective)
            counts["items"] += len(pending)
            counts["failed"] += result.n_failed
            order = sorted(range(len(pending)),
                           key=lambda i: (-pending[i][1].priority, i))
            for i in order if admission else range(len(pending)):
                k, request = pending[i]
                item = result.items[i]
                verdict = None
                if admission and item.mapping is not None:
                    ledger = ledgers.get(request.network_ref)
                    if ledger is None:
                        with tracer.span("ledger.create", k):
                            ledger = ClusterState.from_network(
                                request.instance.network,
                                node_capacity_factor=ADMIT_ALL_FACTOR,
                                link_capacity_factor=ADMIT_ALL_FACTOR)
                        ledgers[request.network_ref] = ledger
                    with tracer.span("ledger.commit", k):
                        ledger.commit(ledger.demand_of(item.mapping,
                                                       demand_fps=1.0))
                    verdict = {"admitted": True, "priority": request.priority}
                with tracer.span("wire.encode", k):
                    payload = item_result_to_wire(
                        item, solver=result.solver,
                        objective=result.objective,
                        network_ref=interner.ref_for(
                            request.network_ref, request.instance.network),
                        admission=verdict)
                    json.dumps(payload).encode("utf-8")
        pending.clear()

    for k in range(n_ops):
        if stream.is_delta(k):
            flush(k)
            body = json.dumps({"schema": WIRE_SCHEMA, "ref": ref,
                               "edits": deltas.next_edits()}).encode()
            with tracer.span("server.delta", k):
                payload = json.loads(body.decode("utf-8"))
                with tracer.span("wire.delta", k):
                    network, ref, _n = interner.apply_delta(payload["ref"],
                                                            payload["edits"])
                ledger = ledgers.get(ref.split("@", 1)[0])
                if ledger is not None and ledger.network is network:
                    with tracer.span("ledger.rebase", k):
                        ledger.rebase()
            continue
        body = stream.body(stream.body_index(k), ref)
        with tracer.span("server.request", k):
            with tracer.span("wire.decode", k):
                payload = json.loads(body.decode("utf-8"))
            with tracer.span("wire.from_wire", k):
                request = SolveRequest.from_wire(payload, interner=interner,
                                                 default_solver=SOLVER)
        pending.append((k, request))
        if len(pending) >= group:
            flush(k)
    flush(n_ops)
    counts["interner_hit_ratio"] = (interner.hits
                                    / (interner.hits + interner.misses))
    return counts


def _timed_replays(replay, rounds: int = 3):
    """Alternate untraced and traced replays; returns the median untraced
    and traced wall times and the last traced run's (tracer, result)."""
    replay(benchlib.NullTracer(), warmup=True)
    untraced, traced = [], []
    for _ in range(rounds):
        start = time.perf_counter()
        replay(benchlib.NullTracer())
        untraced.append(time.perf_counter() - start)
        tracer = benchlib.Tracer()
        start = time.perf_counter()
        result = replay(tracer)
        traced.append(time.perf_counter() - start)
    return (statistics.median(untraced), statistics.median(traced), tracer,
            result)


def _root_ns(tracer: benchlib.Tracer) -> int:
    return sum(end - start for _n, start, end, parent, _r in tracer.spans
               if parent < 0)


def serve_layers(stream: ServeStream, *, n_ops: int, group: int,
                 server_cpu_ms_per_req: float) -> Dict[str, float]:
    """Per-layer metrics of a serving workload from its traced replay."""
    def replay(tracer, warmup=False):
        return _replay_serve(stream, 200 if warmup else n_ops, group, tracer)

    untraced, traced, tracer, counts = _timed_replays(replay)
    totals = benchlib.self_time_by_name(tracer.spans)
    tag = _OBJECTIVE_TAG[stream.spec.objective]
    return {
        "wire.decode_us": _mean_self_us(totals, "wire.decode"),
        "wire.from_wire_us": _mean_self_us(totals, "wire.from_wire"),
        "wire.encode_us": _mean_self_us(totals, "wire.encode"),
        "wire.delta_us": _mean_self_us(totals, "wire.delta"),
        "wire.interner_hit_ratio": counts["interner_hit_ratio"],
        f"batch.solve_us_per_item.{tag}": _mean_self_us(
            totals, f"batch.solve.{tag}", per=counts["items"]),
        "batch.group_size": float(group),
        "batch.failed_items": counts["failed"],
        "network.dense_view_build_ms": _dense_view_build_ms(
            [stream.network_payload]),
        "ledger.commit_us": _mean_self_us(totals, "ledger.commit"),
        "ledger.rebase_us": _mean_self_us(totals, "ledger.rebase"),
        "trace.overhead_share": (traced - untraced) / untraced,
        "trace.span_cover_share": (_root_ns(tracer) / 1e6 / n_ops
                                   / server_cpu_ms_per_req),
    }


# --------------------------------------------------------------------------- #
# batch-churn
# --------------------------------------------------------------------------- #
def _replay_batch(stream: BatchStream, seed: int, steps: int, tracer
                  ) -> Dict:
    groups = stream.fresh_groups()
    counts = {"items": {o: 0 for o in _OBJECTIVE_TAG}, "failed": 0,
              "calls": 0, "warm_items": 0, "reused": 0, "resolved": 0}
    for objective, tag in _OBJECTIVE_TAG.items():
        for g, group in enumerate(groups):
            with tracer.span(f"batch.solve.{tag}", g):
                result = solve_many(group, solver=SOLVER, objective=objective)
            counts["items"][objective] += len(group)
            counts["failed"] += result.n_failed
            counts["calls"] += 1
    networks = [group[0].network for group in groups]
    churn = ChurnSequence(networks, seed)
    priors = []
    for g, group in enumerate(groups):
        with tracer.span("warm.capture", g):
            priors.append(solve_many(group, solver=SOLVER,
                                     objective=Objective.MIN_DELAY,
                                     warm_start=True))
    for step in range(steps):
        edits = churn.step_edits()
        with tracer.span("churn.step", step):
            with tracer.span("network.patch", step):
                for network, network_edits in zip(networks, edits):
                    for u, v, bandwidth in network_edits:
                        network.set_bandwidth(u, v, bandwidth)
            for g, (group, prior) in enumerate(zip(groups, priors)):
                with tracer.span("warm.resolve", step):
                    priors[g] = solve_many(group, solver=SOLVER,
                                           objective=Objective.MIN_DELAY,
                                           prior=prior)
                counts["warm_items"] += len(group)
                counts["failed"] += priors[g].n_failed
                counts["reused"] += priors[g].warm_reused
                counts["resolved"] += priors[g].warm_resolved
    counts["patches"] = sum(n.delta_patches_total for n in networks)
    counts["rebuilds"] = sum(n.rebuilds_total for n in networks)
    return counts


def batch_layers(stream: BatchStream, seed: int, measured: Dict,
                 steps: int = 20) -> Dict[str, float]:
    """Per-layer metrics of ``batch-churn`` from its traced replay."""
    def replay(tracer, warmup=False):
        return _replay_batch(stream, seed, 2 if warmup else steps, tracer)

    untraced, traced, tracer, counts = _timed_replays(replay)
    totals = benchlib.self_time_by_name(tracer.spans)
    items = counts["items"]
    decided = counts["reused"] + counts["resolved"]
    return {
        "batch.solve_us_per_item.delay": _mean_self_us(
            totals, "batch.solve.delay", per=items[Objective.MIN_DELAY]),
        "batch.solve_us_per_item.framerate": _mean_self_us(
            totals, "batch.solve.framerate",
            per=items[Objective.MAX_FRAME_RATE]),
        "batch.group_size": sum(items.values()) / counts["calls"],
        "batch.failed_items": counts["failed"] + measured["failed"],
        "warm.resolve_us_per_item": _mean_self_us(
            totals, "warm.resolve", per=counts["warm_items"]),
        "warm.reused_share": counts["reused"] / decided if decided else 0.0,
        "network.dense_view_build_ms": _dense_view_build_ms(stream.payloads),
        "network.patch_share": counts["patches"] / (counts["patches"]
                                                    + counts["rebuilds"]),
        "trace.overhead_share": (traced - untraced) / untraced,
        "trace.span_cover_share": _root_ns(tracer) / 1e9 / traced,
    }
