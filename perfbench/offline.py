"""The ``batch-churn`` workload: in-process ``solve_many`` with no server.

Cold passes run both objectives through the tensor engine over four
networks at fixed group sizes; churn steps then move 1% of each network's
link bandwidths and re-plan the min-delay groups with
``solve_many(prior=...)``, the warm engine's path.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Dict, List, Tuple

from repro.core.batch import solve_many
from repro.core.mapping import Objective
from repro.core.registry import get_solver
from repro.model.serialization import mapping_to_dict

import benchlib
import streams
from serving import proc_hwm_mb
from streams import SOLVER, BatchStream, ChurnSequence

OBJECTIVES = (Objective.MIN_DELAY, Objective.MAX_FRAME_RATE)
#: Fixed percentile of the churn-step latency printed beside the median
#: (a run makes well over 100 steps, so 10+ samples lie beyond it).
STEP_TAIL_Q = 90.0
SETUP_REPEATS = 5


def comparable(mapping_dict: Dict) -> Dict:
    """A mapping's wire dict without the fields that name the engine or
    time the solve, so results of different engines compare exactly."""
    return {k: v for k, v in mapping_dict.items()
            if k not in ("algorithm", "runtime_s")}


def run(seed: int, seconds: float, trace: bool) -> Dict:
    stream = BatchStream.build(seed)
    problems: List[str] = []
    attempted = failed = 0
    # Every time below is divided by the host's slowdown when it was taken.
    probe = benchlib.SpeedProbe()

    # Set-up: a first pass of both objectives on fresh network objects,
    # dense-view builds included, repeated and reported as the median.
    setups = []
    for _ in range(SETUP_REPEATS):
        slowdown = probe.slowdown()
        start = time.perf_counter()
        groups = stream.fresh_groups()
        for objective in OBJECTIVES:
            for group in groups:
                result = solve_many(group, solver=SOLVER, objective=objective)
                attempted += len(group)
                failed += result.n_failed
        setups.append((time.perf_counter() - start) / slowdown)

    # Cold passes: throughput of the tensor engine at the offline groups,
    # from the median time of each (objective, group) call over the passes.
    call_s: Dict[Tuple[Objective, int], List[float]] = {}
    last: Dict[Objective, list] = {}
    deadline = time.perf_counter() + seconds / 2
    while not last or time.perf_counter() < deadline:
        for objective in OBJECTIVES:
            results = []
            slowdown = probe.slowdown()
            for g, group in enumerate(groups):
                start = time.perf_counter()
                result = solve_many(group, solver=SOLVER, objective=objective)
                call_s.setdefault((objective, g), []).append(
                    (time.perf_counter() - start) / slowdown)
                attempted += len(group)
                failed += result.n_failed
                results.append(result)
            last[objective] = results
    pass_items = sum(len(group) for group in groups)
    pass_s = {o: sum(statistics.median(call_s[(o, g)])
                     for g in range(len(groups))) for o in OBJECTIVES}
    passes = len(call_s[(Objective.MIN_DELAY, 0)])

    # Oracle check: a seeded sample agrees with the scalar elpc engine.
    rng = random.Random(streams.sub_seed(seed, "oracle"))
    for objective in OBJECTIVES:
        oracle = get_solver("elpc", objective)
        for _ in range(6):
            g = rng.randrange(len(groups))
            i = rng.randrange(len(groups[g]))
            item = last[objective][g].items[i]
            inst = groups[g][i]
            expected = oracle(inst.pipeline, inst.network, inst.request)
            if item.mapping is None or (
                    comparable(mapping_to_dict(item.mapping))
                    != comparable(mapping_to_dict(expected))):
                problems.append(f"{objective.value} item {g}/{i} differs "
                                "from the scalar elpc oracle")

    # Churn: edit 1% of links, re-plan warm, check against a cold solve.
    networks = [group[0].network for group in groups]
    churn = ChurnSequence(networks, seed)
    priors = [solve_many(group, solver=SOLVER, objective=Objective.MIN_DELAY,
                         warm_start=True) for group in groups]
    step_ms: List[float] = []
    warm_s: List[float] = []
    deadline = time.perf_counter() + seconds / 2
    while not step_ms or time.perf_counter() < deadline:
        edits = churn.step_edits()
        slowdown = probe.slowdown()
        start = time.perf_counter()
        for network, network_edits in zip(networks, edits):
            for u, v, bandwidth in network_edits:
                network.set_bandwidth(u, v, bandwidth)
        solved = time.perf_counter()
        results = [solve_many(group, solver=SOLVER,
                              objective=Objective.MIN_DELAY, prior=prior)
                   for group, prior in zip(groups, priors)]
        end = time.perf_counter()
        step_ms.append((end - start) * 1e3 / slowdown)
        warm_s.append((end - solved) / slowdown)
        for group, result in zip(groups, results):
            attempted += len(group)
            failed += result.n_failed
            cold = solve_many(group, solver=SOLVER,
                              objective=Objective.MIN_DELAY)
            for w, c in zip(result.items, cold.items):
                if (w.mapping is None) != (c.mapping is None) or (
                        w.mapping is not None
                        and comparable(mapping_to_dict(w.mapping))
                        != comparable(mapping_to_dict(c.mapping))):
                    problems.append(f"churn step {len(step_ms)}: warm "
                                    "result differs from cold")
                    break
        priors = results

    if failed:
        problems.append(f"guard: {failed} infeasible or failed items "
                        "(batch-churn must have none)")
    tail = benchlib.percentile(step_ms, STEP_TAIL_Q)
    p50 = benchlib.percentile(step_ms, 50)
    if p50 is None:
        raise RuntimeError(f"only {len(step_ms)} churn steps; raise --seconds")
    rss = proc_hwm_mb("self")
    out = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "end_to_end": {
            "throughput_per_s": (2 * pass_items / sum(pass_s.values()),
                                 "1/s"),
            "p50_ms": (p50, "ms"),
            "ok_share": ((attempted - failed) / attempted, "share"),
            "setup_s": (statistics.median(setups), "s"),
            "rss_mb": (rss, "MB"),
        },
        "report": [
            ("solves_per_s_delay", pass_items / pass_s[Objective.MIN_DELAY],
             "items/s", f"median pass of {passes}"),
            ("solves_per_s_framerate",
             pass_items / pass_s[Objective.MAX_FRAME_RATE], "items/s",
             f"median pass of {passes}"),
            ("resolves_per_s", pass_items / statistics.median(warm_s),
             "items/s", f"median step of {len(warm_s)}"),
            ("churn_step_p50_ms", p50, "ms", f"n={len(step_ms)}"),
            ("error_share", failed / attempted, "share",
             f"n={attempted}"),
            ("setup_s", statistics.median(setups), "s",
             f"n={SETUP_REPEATS}"),
            ("rss_mb", rss, "MB", "own process VmHWM"),
            ("host_slowdown", statistics.median(probe.samples)
             / benchlib.REFERENCE_NOMINAL_S, "x",
             f"median of {len(probe.samples)} probes; times above are "
             "divided by it, rates multiplied"),
        ],
    }
    if tail is not None:
        out["report"].insert(4, (f"churn_step_p{STEP_TAIL_Q:g}_ms", tail,
                                 "ms", f"n={len(step_ms)}"))
    if trace:
        import tracing

        out["layers"] = dict.fromkeys(tracing.LAYER_METRICS, 0.0)
        out["layers"].update(tracing.batch_layers(stream, seed, out))
        out["layers"]["host.slowdown"] = (statistics.median(probe.samples)
                                          / benchlib.REFERENCE_NOMINAL_S)
    return out
