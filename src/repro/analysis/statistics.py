"""Multi-replicate experiment statistics.

The paper's 20 cases are single draws from its random dataset generator, so a
reader cannot tell how much of the reported advantage is luck of the draw.
This module adds the statistical layer a careful reproduction wants:

* :func:`replicate_case` — re-draw one case specification ``r`` times with
  different seeds and run a set of algorithms on every replicate,
* :class:`ReplicatedCaseResult` — per-algorithm summary statistics (mean,
  standard deviation, bootstrap-free normal-approximation confidence
  intervals) and ELPC-vs-baseline improvement distributions,
* :func:`summarize_improvements` — aggregate win rates and improvement
  factors across several replicated cases.

Only numpy is used (scipy stays optional throughout the library).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.batch import solve_many
from ..core.mapping import Objective
from ..core.registry import get_solver
from ..exceptions import SpecificationError
from ..generators.cases import CaseSpec
from ..generators.network_gen import random_network, random_request
from ..generators.pipeline_gen import random_pipeline
from ..generators.random_state import DEFAULT_RANGES, ParameterRanges
from ..model.serialization import ProblemInstance
from .comparison import DEFAULT_ALGORITHMS
from .metrics import improvement_ratio

__all__ = [
    "SummaryStatistics",
    "ReplicatedCaseResult",
    "replicate_case",
    "summarize_improvements",
]

#: z-value of the two-sided 95 % normal confidence interval.
_Z_95 = 1.959963984540054


@dataclass(frozen=True)
class SummaryStatistics:
    """Mean / spread / confidence interval of one algorithm's objective values."""

    n_samples: int
    mean: float
    std: float
    minimum: float
    maximum: float
    ci_low: float
    ci_high: float

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "SummaryStatistics":
        """Normal-approximation summary of a sample (requires ≥ 1 value)."""
        arr = np.asarray([v for v in values if v == v], dtype=float)
        if arr.size == 0:
            raise SpecificationError("cannot summarise an empty sample")
        mean = float(arr.mean())
        std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
        half_width = _Z_95 * std / math.sqrt(arr.size) if arr.size > 1 else 0.0
        return cls(n_samples=int(arr.size), mean=mean, std=std,
                   minimum=float(arr.min()), maximum=float(arr.max()),
                   ci_low=mean - half_width, ci_high=mean + half_width)

    def overlaps(self, other: "SummaryStatistics") -> bool:
        """``True`` when the two 95 % confidence intervals overlap."""
        return self.ci_low <= other.ci_high and other.ci_low <= self.ci_high


@dataclass
class ReplicatedCaseResult:
    """All replicates of one case specification for one objective."""

    spec: CaseSpec
    objective: Objective
    algorithms: Tuple[str, ...]
    #: algorithm -> objective values per replicate (NaN where infeasible)
    values: Dict[str, List[float]] = field(default_factory=dict)

    @property
    def n_replicates(self) -> int:
        """Number of replicates run."""
        return len(next(iter(self.values.values()))) if self.values else 0

    def statistics(self, algorithm: str) -> SummaryStatistics:
        """Summary statistics of one algorithm over the feasible replicates."""
        if algorithm not in self.values:
            raise SpecificationError(f"no values recorded for {algorithm!r}")
        return SummaryStatistics.from_values(self.values[algorithm])

    def feasibility_rate(self, algorithm: str) -> float:
        """Fraction of replicates on which the algorithm produced a mapping."""
        values = self.values.get(algorithm, [])
        if not values:
            return 0.0
        return sum(1 for v in values if v == v) / len(values)

    def improvement_samples(self, baseline: str, *, elpc_name: str = "elpc") -> List[float]:
        """Per-replicate ELPC-vs-baseline improvement factors (NaN entries dropped)."""
        elpc_values = self.values.get(elpc_name, [])
        base_values = self.values.get(baseline, [])
        out: List[float] = []
        for e, b in zip(elpc_values, base_values):
            if e == e and b == b:
                out.append(improvement_ratio(self.objective, e, b))
        return [r for r in out if r == r]

    def win_rate(self, algorithm: str = "elpc") -> float:
        """Fraction of replicates on which ``algorithm`` is at least tied for best."""
        if not self.values:
            return 0.0
        wins, total = 0, 0
        better = min if self.objective is Objective.MIN_DELAY else max
        for idx in range(self.n_replicates):
            feasible = {name: vals[idx] for name, vals in self.values.items()
                        if vals[idx] == vals[idx]}
            if not feasible or algorithm not in feasible:
                continue
            total += 1
            best = better(feasible.values())
            if abs(feasible[algorithm] - best) <= 1e-9 * max(abs(best), 1.0):
                wins += 1
        return wins / total if total else 0.0


def replicate_case(spec: CaseSpec, n_replicates: int, *,
                   objective: Objective = Objective.MIN_DELAY,
                   algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
                   ranges: ParameterRanges = DEFAULT_RANGES,
                   base_seed: Optional[int] = None) -> ReplicatedCaseResult:
    """Run ``n_replicates`` fresh random draws of one case specification.

    Each replicate re-draws the pipeline, the network topology/attributes and
    the request with a distinct seed derived from ``base_seed`` (default: the
    spec's own seed), then runs every algorithm over the whole replicate batch
    via :func:`repro.core.batch.solve_many`, one batch per algorithm.  *Every* failed replicate — infeasible
    instances and any other recorded :class:`~repro.exceptions.ReproError`
    (bad spec, solver error) alike — is recorded as NaN, the per-item error
    policy of :func:`solve_many`, so one pathological replicate can no longer
    abort a whole campaign while feasibility rates remain visible in the
    statistics.
    """
    if n_replicates < 1:
        raise SpecificationError("n_replicates must be at least 1")
    for name in algorithms:
        get_solver(name, objective)  # unknown algorithm names still fail fast
    seed0 = spec.seed if base_seed is None else base_seed
    result = ReplicatedCaseResult(spec=spec, objective=objective,
                                  algorithms=tuple(algorithms),
                                  values={name: [] for name in algorithms})
    instances: List[ProblemInstance] = []
    for replicate in range(n_replicates):
        seed = seed0 + 7919 * (replicate + 1)
        pipeline = random_pipeline(spec.n_modules, seed=seed, ranges=ranges)
        network = random_network(spec.n_nodes, spec.n_links, seed=seed + 1,
                                 ranges=ranges)
        request = random_request(network, seed=seed + 2, min_hop_distance=2)
        instances.append(ProblemInstance(
            pipeline=pipeline, network=network, request=request,
            name=f"case{spec.case_number}-r{replicate}"))
    for name in algorithms:
        batch = solve_many(instances, solver=name, objective=objective)
        values = []
        for item in batch:
            value = item.objective_value(objective)
            values.append(float("nan") if value is None else value)
        result.values[name] = values
    return result


def summarize_improvements(results: Sequence[ReplicatedCaseResult],
                           baseline: str, *, elpc_name: str = "elpc") -> SummaryStatistics:
    """Pool ELPC-vs-baseline improvement factors across several replicated cases."""
    samples: List[float] = []
    for result in results:
        samples.extend(result.improvement_samples(baseline, elpc_name=elpc_name))
    if not samples:
        raise SpecificationError(
            f"no replicate produced both {elpc_name!r} and {baseline!r} results")
    return SummaryStatistics.from_values(samples)
