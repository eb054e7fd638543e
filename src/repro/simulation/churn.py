"""Capacity-churn replay: drifting capacities → warm-started re-planning.

The paper's service model assumes a long-lived transport network whose
capacities are *not* static: nodes are shared with other tenants (processing
power drifts), links carry background traffic (bandwidth and delay drift).
This module replays such a churn stream against a batch of mapped pipelines
and measures the two costs an operator trades off:

* **staleness** — how much worse the *stale* plans (computed before a
  capacity event) perform on the drifted network than freshly re-solved
  optimal plans, and
* **re-solve cost** — the wall-clock of re-planning, warm-started from the
  previous solve's DP tables (:func:`repro.solve_many` with ``prior=``)
  versus a full cold re-solve.

Every warm re-solve is differentially verified against a cold solve on the
same drifted network — the incremental path must be *bit-identical*, so the
speedup it reports is never bought with approximation.  ``repro churn`` is
the CLI front-end; ``benchmarks/test_bench_churn.py`` pins the speedup.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.batch import BatchRunResult, solve_many
from ..core.mapping import Objective
from ..exceptions import SimulationError, SpecificationError
from ..model.cost import end_to_end_delay_ms, frame_rate_fps
from ..model.network import TransportNetwork
from ..model.serialization import ProblemInstance

__all__ = ["ChurnEvent", "ChurnStepResult", "ChurnResult",
           "generate_churn_events", "simulate_churn"]

#: Schema tag of ``repro churn --emit-json`` — the ``repro-bench/1`` format
#: shared with every other benchmark producer in this repo.
BENCH_JSON_SCHEMA = "repro-bench/1"

#: Edit kinds a churn stream may carry (the scalar-setter surface of
#: :class:`~repro.model.network.TransportNetwork`).
CHURN_KINDS = ("power", "bandwidth", "delay")


@dataclass(frozen=True)
class ChurnEvent:
    """One scalar capacity edit at a point in simulated time.

    ``kind`` selects the setter: ``"power"`` drives
    :meth:`TransportNetwork.set_processing_power` on ``node``;
    ``"bandwidth"`` / ``"delay"`` drive :meth:`~TransportNetwork.set_bandwidth`
    / :meth:`~TransportNetwork.set_link_delay` on the link ``u -> v``.
    Events sharing one ``time_s`` form a *step*: they are applied together
    and answered by a single re-plan.
    """

    time_s: float
    kind: str
    node: Optional[int] = None
    u: Optional[int] = None
    v: Optional[int] = None
    value: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in CHURN_KINDS:
            raise SpecificationError(
                f"unknown churn kind {self.kind!r}; expected one of "
                f"{list(CHURN_KINDS)}")
        if self.kind == "power":
            if self.node is None:
                raise SpecificationError("power events need a 'node'")
        elif self.u is None or self.v is None:
            raise SpecificationError(f"{self.kind} events need 'u' and 'v'")

    def apply(self, network: TransportNetwork) -> None:
        """Drive this event's setter against ``network``."""
        if self.kind == "power":
            network.set_processing_power(self.node, self.value)
        elif self.kind == "bandwidth":
            network.set_bandwidth(self.u, self.v, self.value)
        else:
            network.set_link_delay(self.u, self.v, self.value)

    def to_dict(self) -> Dict[str, Any]:
        """Wire rendering (the ``POST /delta`` edit shape plus ``time_s``)."""
        out: Dict[str, Any] = {"time_s": self.time_s, "kind": self.kind,
                               "value": self.value}
        if self.kind == "power":
            out["node"] = self.node
        else:
            out["u"], out["v"] = self.u, self.v
        return out


def generate_churn_events(network: TransportNetwork, *, n_steps: int,
                          edit_fraction: float = 0.01,
                          edits_per_step: Optional[int] = None,
                          interval_s: float = 1.0, amplitude: float = 0.4,
                          kinds: Sequence[str] = CHURN_KINDS,
                          seed: int = 0) -> List[ChurnEvent]:
    """A deterministic churn stream over ``network``'s nodes and links.

    Each of the ``n_steps`` steps (``interval_s`` apart) carries
    ``edits_per_step`` scalar edits — by default ``edit_fraction`` of the
    link count, floored at one, the "1% of edges drift per event" regime the
    churn benchmark pins.  Edited values are the network's *original* values
    scaled by a factor drawn uniformly from ``[1 - amplitude, 1 + amplitude]``
    (clamped strictly positive for power/bandwidth), so the stream never
    drives a capacity to zero and repeated edits of one target stay bounded
    around its original value.
    """
    if n_steps < 1:
        raise SpecificationError(f"n_steps must be >= 1, got {n_steps!r}")
    if not 0.0 <= amplitude < 1.0:
        raise SpecificationError(
            f"amplitude must be in [0, 1), got {amplitude!r}")
    for kind in kinds:
        if kind not in CHURN_KINDS:
            raise SpecificationError(
                f"unknown churn kind {kind!r}; expected a subset of "
                f"{list(CHURN_KINDS)}")
    links = network.links()
    nodes = network.nodes()
    if not links or not nodes:
        raise SpecificationError("churn needs a network with nodes and links")
    if edits_per_step is None:
        edits_per_step = max(1, round(edit_fraction * len(links)))
    if edits_per_step < 1:
        raise SpecificationError(
            f"edits_per_step must be >= 1, got {edits_per_step!r}")
    rng = random.Random(seed)
    original_power = {n.node_id: n.processing_power for n in nodes}
    original_bw = {(l.start_node, l.end_node): l.bandwidth_mbps for l in links}
    original_delay = {(l.start_node, l.end_node): l.min_delay_ms for l in links}
    events: List[ChurnEvent] = []
    for step in range(n_steps):
        at = (step + 1) * interval_s
        for _ in range(edits_per_step):
            kind = rng.choice(list(kinds))
            factor = rng.uniform(1.0 - amplitude, 1.0 + amplitude)
            if kind == "power":
                node = rng.choice(nodes).node_id
                value = max(1e-9, original_power[node] * factor)
                events.append(ChurnEvent(time_s=at, kind=kind, node=node,
                                         value=value))
            else:
                link = rng.choice(links)
                key = (link.start_node, link.end_node)
                if kind == "bandwidth":
                    value = max(1e-9, original_bw[key] * factor)
                else:
                    base = original_delay[key]
                    value = base * factor if base > 0 else rng.uniform(0.0, 1.0)
                events.append(ChurnEvent(time_s=at, kind=kind, u=key[0],
                                         v=key[1], value=value))
    return events


@dataclass(frozen=True)
class ChurnStepResult:
    """Measurements of one churn step (one event batch → one re-plan)."""

    time_s: float
    n_edits: int
    warm_s: float
    cold_s: float
    warm_reused: int
    warm_resolved: int
    staleness_mean: float
    staleness_max: float
    mismatches: int


@dataclass(frozen=True)
class ChurnResult:
    """Outcome of a churn replay (see :func:`simulate_churn`).

    ``staleness_*`` is the regret of serving stale plans on the drifted
    network: for ``MIN_DELAY`` the extra end-to-end delay in milliseconds,
    for ``MAX_FRAME_RATE`` the lost frames/second — always measured against
    the freshly re-solved optimum of the same step, so 0 means the old plan
    was still optimal.  ``mismatches_total`` counts warm-vs-cold
    disagreements and must be 0 (the incremental engine is exact).
    """

    solver: str
    objective: Objective
    n_instances: int
    n_steps: int
    n_events: int
    initial_solve_s: float
    warm_total_s: float
    cold_total_s: float
    staleness_mean: float
    staleness_max: float
    mismatches_total: int
    delta_patches_total: int
    rebuilds_total: int
    view_epoch: int
    steps: List[ChurnStepResult] = field(repr=False, default_factory=list)

    @property
    def speedup(self) -> float:
        """Cold re-solve wall-clock over warm re-solve wall-clock."""
        if self.warm_total_s <= 0:
            return float("inf") if self.cold_total_s > 0 else 1.0
        return self.cold_total_s / self.warm_total_s

    @property
    def staleness_unit(self) -> str:
        return ("ms" if self.objective is Objective.MIN_DELAY else "fps")

    def table_text(self) -> str:
        unit = self.staleness_unit
        lines = [
            f"churn: {self.n_steps} steps x "
            f"{self.n_events // max(1, self.n_steps)} edits over "
            f"{self.n_instances} pipelines  (solver={self.solver}, "
            f"objective={self.objective.value})",
            f"{'initial solve':>18}: {self.initial_solve_s * 1e3:.2f} ms",
            f"{'warm re-solve':>18}: {self.warm_total_s * 1e3:.2f} ms total",
            f"{'cold re-solve':>18}: {self.cold_total_s * 1e3:.2f} ms total",
            f"{'speedup':>18}: {self.speedup:.2f}x (bit-identical, "
            f"{self.mismatches_total} mismatches)",
            f"{'staleness mean':>18}: {self.staleness_mean:.4f} {unit}",
            f"{'staleness max':>18}: {self.staleness_max:.4f} {unit}",
            f"{'view epoch':>18}: {self.view_epoch} "
            f"({self.delta_patches_total} patches, "
            f"{self.rebuilds_total} rebuilds)",
        ]
        return "\n".join(lines)

    def to_bench_json(self, *, sha: Optional[str] = None) -> Dict[str, Any]:
        """Render in the ``repro-bench/1`` schema consumed by the bench gate
        (``mean_s`` is the gated warm re-solve time; ratios ride as
        ``extra:`` fields)."""
        steps = max(1, self.n_steps)
        metric: Dict[str, Any] = {
            "mean_s": self.warm_total_s / steps,
            "stddev_s": 0.0,
            "rounds": self.n_steps,
            "extra:speedup": round(self.speedup, 3),
            "extra:cold_mean_s": self.cold_total_s / steps,
            "extra:staleness_mean": round(self.staleness_mean, 6),
            "extra:staleness_max": round(self.staleness_max, 6),
            "extra:staleness_unit": self.staleness_unit,
            "extra:mismatches": self.mismatches_total,
            "extra:delta_patches": self.delta_patches_total,
            "extra:rebuilds": self.rebuilds_total,
            "extra:instances": self.n_instances,
            "extra:events": self.n_events,
        }
        payload: Dict[str, Any] = {
            "schema": BENCH_JSON_SCHEMA,
            "source": "repro-churn",
            "metrics": {"churn/warm_resolve": metric},
        }
        if sha:
            payload["sha"] = sha
        return payload


def _plan_value(mapping, *, objective: Objective,
                include_link_delay: bool) -> float:
    """Evaluate a (possibly stale) mapping on its network's *current* state.

    ``mapping.network`` is the live, in-place-mutated network object, so this
    reads the drifted capacities — exactly what a stale plan would deliver if
    kept in service after the churn event.
    """
    if objective is Objective.MIN_DELAY:
        return end_to_end_delay_ms(mapping.pipeline, mapping.network,
                                   mapping.groups, mapping.path,
                                   include_link_delay=include_link_delay)
    return frame_rate_fps(mapping.pipeline, mapping.network, mapping.groups,
                          mapping.path, include_link_delay=include_link_delay)


def simulate_churn(network: TransportNetwork,
                   instances: Sequence[Any],
                   events: Sequence[ChurnEvent], *,
                   solver: str = "elpc-tensor",
                   objective: Objective = Objective.MIN_DELAY,
                   include_link_delay: bool = True,
                   verify: bool = True) -> ChurnResult:
    """Replay a churn stream: apply each step's edits, re-plan, measure.

    Per step the replay (1) applies the step's scalar edits to ``network``
    (journalled as a :class:`~repro.model.network.ViewDelta`, so the dense
    view is patched, not rebuilt), (2) measures the staleness of the previous
    step's plans on the drifted capacities, (3) re-solves the whole batch
    warm-started from the previous DP tables *and* cold from scratch, timing
    both, and (4) — with ``verify=True`` — checks the two agree bit-for-bit
    on every instance.  The warm result seeds the next step.

    ``instances`` is anything :func:`repro.solve_many` accepts (tuples or
    :class:`ProblemInstance`), all over ``network``.
    """
    if not events:
        raise SimulationError("churn replay needs at least one event")
    if not instances:
        raise SimulationError("churn replay needs at least one instance")
    for position, instance in enumerate(instances):
        inst_network = (instance.network if isinstance(instance, ProblemInstance)
                        else instance[1])
        if inst_network is not network:
            raise SpecificationError(
                f"instance #{position} is not over the churned network — "
                "churn re-planning batches share one network object")
    kwargs = {"include_link_delay": include_link_delay}

    start = time.perf_counter()
    prior = solve_many(instances, solver=solver, objective=objective,
                       warm_start=True, **kwargs)
    initial_solve_s = time.perf_counter() - start

    steps: List[ChurnStepResult] = []
    warm_total_s = cold_total_s = 0.0
    staleness_all: List[float] = []
    mismatches_total = 0
    by_step: "Dict[float, List[ChurnEvent]]" = {}
    for event in sorted(events, key=lambda e: e.time_s):
        by_step.setdefault(event.time_s, []).append(event)

    for at, step_events in by_step.items():
        for event in step_events:
            event.apply(network)
        stale_values = [
            _plan_value(item.mapping, objective=objective,
                        include_link_delay=include_link_delay)
            for item in prior.items if item.mapping is not None]

        start = time.perf_counter()
        warm = solve_many(instances, solver=solver, objective=objective,
                          prior=prior, **kwargs)
        warm_s = time.perf_counter() - start

        start = time.perf_counter()
        cold = solve_many(instances, solver=solver, objective=objective,
                          **kwargs)
        cold_s = time.perf_counter() - start

        mismatches = 0
        if verify:
            for warm_item, cold_item in zip(warm.items, cold.items):
                wm, cm = warm_item.mapping, cold_item.mapping
                if (wm is None) != (cm is None):
                    mismatches += 1
                elif wm is not None and (
                        wm.path != cm.path
                        or wm.objective_value != cm.objective_value):
                    mismatches += 1

        fresh_values = [
            _plan_value(item.mapping, objective=objective,
                        include_link_delay=include_link_delay)
            for item in warm.items if item.mapping is not None]
        # Regret of keeping the stale plan: positive = the old plan is now
        # worse than the fresh optimum (never negative up to float noise).
        if objective is Objective.MIN_DELAY:
            regrets = [max(0.0, s - f)
                       for s, f in zip(stale_values, fresh_values)]
        else:
            regrets = [max(0.0, f - s)
                       for s, f in zip(stale_values, fresh_values)]
        step_mean = sum(regrets) / len(regrets) if regrets else 0.0
        step_max = max(regrets) if regrets else 0.0

        warm_total_s += warm_s
        cold_total_s += cold_s
        staleness_all.extend(regrets)
        mismatches_total += mismatches
        steps.append(ChurnStepResult(
            time_s=at, n_edits=len(step_events), warm_s=warm_s, cold_s=cold_s,
            warm_reused=warm.warm_reused, warm_resolved=warm.warm_resolved,
            staleness_mean=step_mean, staleness_max=step_max,
            mismatches=mismatches))
        prior = warm

    return ChurnResult(
        solver=solver, objective=objective, n_instances=len(instances),
        n_steps=len(steps), n_events=len(events),
        initial_solve_s=initial_solve_s,
        warm_total_s=warm_total_s, cold_total_s=cold_total_s,
        staleness_mean=(sum(staleness_all) / len(staleness_all)
                        if staleness_all else 0.0),
        staleness_max=max(staleness_all) if staleness_all else 0.0,
        mismatches_total=mismatches_total,
        delta_patches_total=network.delta_patches_total,
        rebuilds_total=network.rebuilds_total,
        view_epoch=network.view_epoch,
        steps=steps)
