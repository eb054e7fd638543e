"""Comparison harness: run several mapping algorithms over a case suite.

This is the code path behind the paper's Section 4.3 evaluation: for every
case of the simulation suite run ELPC, Streamline and Greedy for both
objectives, collect their objective values and runtimes, and hand the results
to the reporting layer (Fig. 2 table) and the plotting layer (Fig. 5 / Fig. 6
curves).  Failures and infeasibilities are recorded rather than raised so a
single pathological case cannot abort a whole campaign.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.batch import solve_many
from ..core.mapping import Objective
from ..core.registry import get_solver
from ..exceptions import InfeasibleMappingError, ReproError
from ..model.serialization import ProblemInstance
from .metrics import AlgorithmResult, CaseResult

__all__ = ["ComparisonRun", "run_case", "run_comparison", "DEFAULT_ALGORITHMS",
           "ELPC_ENGINES", "SolverDisagreement", "AgreementReport",
           "check_solver_agreement"]

#: The three algorithms the paper compares (order matters for the table columns).
DEFAULT_ALGORITHMS: Tuple[str, ...] = ("elpc", "streamline", "greedy")

#: The two interchangeable ELPC engines (scalar reference first); they must
#: agree bit for bit on every instance, which ``repro bench`` and the CI gate
#: verify through :func:`check_solver_agreement`.
ELPC_ENGINES: Tuple[str, ...] = ("elpc", "elpc-tensor")


@dataclass
class ComparisonRun:
    """All results of one comparison campaign for one objective."""

    objective: Objective
    algorithms: Tuple[str, ...]
    cases: List[CaseResult] = field(default_factory=list)

    def case_names(self) -> List[str]:
        """Case names in run order."""
        return [case.case_name for case in self.cases]

    def series(self, algorithm: str) -> List[Optional[float]]:
        """Objective values of one algorithm across all cases (run order)."""
        return [case.value(algorithm) for case in self.cases]

    def win_count(self, algorithm: str = "elpc") -> int:
        """Number of cases where ``algorithm`` is at least tied for best."""
        wins = 0
        for case in self.cases:
            best = case.best_algorithm()
            if best is None:
                continue
            best_value = case.value(best)
            value = case.value(algorithm)
            if value is None or best_value is None:
                continue
            if abs(value - best_value) <= 1e-9 * max(abs(best_value), 1.0):
                wins += 1
        return wins

    def feasible_case_count(self, algorithm: str) -> int:
        """Number of cases where ``algorithm`` produced a mapping."""
        return sum(1 for case in self.cases if case.value(algorithm) is not None)

    def mean_improvement(self, baseline: str, *, elpc_name: str = "elpc") -> float:
        """Mean ELPC-vs-baseline improvement ratio over cases where both succeeded."""
        ratios = [case.elpc_improvement(baseline, elpc_name=elpc_name)
                  for case in self.cases]
        usable = [r for r in ratios if r == r]  # drop NaNs
        return sum(usable) / len(usable) if usable else float("nan")


@dataclass(frozen=True)
class SolverDisagreement:
    """One instance on which two solvers that must agree did not.

    ``kind`` is ``"feasibility"`` when one solver mapped the instance and the
    other reported it infeasible, ``"value"`` when both mapped it but the
    objective values differ beyond the tolerance.
    """

    case_name: str
    objective: Objective
    solver: str
    reference: str
    value: Optional[float]
    reference_value: Optional[float]
    kind: str

    def describe(self) -> str:
        """One-line human-readable description."""
        return (f"{self.case_name} [{self.objective.value}] {self.solver} "
                f"{self.value!r} vs {self.reference} {self.reference_value!r} "
                f"({self.kind})")


@dataclass
class AgreementReport:
    """Result of cross-checking equivalent solvers over a suite.

    Produced by :func:`check_solver_agreement`; consumed by ``repro bench``
    (which exits non-zero when :attr:`ok` is false) and serialised into the
    benchmark JSON the CI regression gate archives.
    """

    solvers: Tuple[str, ...]
    objectives: Tuple[Objective, ...]
    n_cases: int
    disagreements: List[SolverDisagreement] = field(default_factory=list)
    solver_time_s: Dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """``True`` when every solver agreed on every instance."""
        return not self.disagreements

    def to_dict(self) -> Dict:
        """JSON-compatible summary (schema shared with the CI bench artifact)."""
        return {
            "solvers": list(self.solvers),
            "objectives": [objective.value for objective in self.objectives],
            "cases": self.n_cases,
            "ok": self.ok,
            "disagreements": [d.describe() for d in self.disagreements],
            "solver_time_s": {name: round(t, 6)
                              for name, t in self.solver_time_s.items()},
        }


def check_solver_agreement(instances: Iterable[ProblemInstance], *,
                           solvers: Sequence[str] = ELPC_ENGINES,
                           objectives: Sequence[Objective] = (
                               Objective.MIN_DELAY, Objective.MAX_FRAME_RATE),
                           rel_tol: float = 1e-12) -> AgreementReport:
    """Cross-check that interchangeable solvers produce identical results.

    The first entry of ``solvers`` is the reference; every other solver is
    compared against it on every instance and objective: both must agree on
    feasibility, and on feasible instances the objective values must match
    within ``rel_tol`` (the ELPC engines are bit-identical by construction, so
    the default tolerance only forgives float printing round-trips).  Batches
    run through :func:`repro.core.batch.solve_many`, so the tensor engine's
    group dispatch is exercised through the check itself.
    """
    suite = list(instances)
    report = AgreementReport(solvers=tuple(solvers), objectives=tuple(objectives),
                             n_cases=len(suite))
    for objective in objectives:
        batches = {}
        for name in solvers:
            batch = solve_many(suite, solver=name, objective=objective)
            batches[name] = batch
            report.solver_time_s[name] = (report.solver_time_s.get(name, 0.0)
                                          + batch.wall_time_s)
        reference = solvers[0]
        ref_values = batches[reference].values()
        for name in solvers[1:]:
            for instance, value, ref_value in zip(suite, batches[name].values(),
                                                  ref_values):
                case_name = instance.name or "unnamed"
                if (value is None) != (ref_value is None):
                    report.disagreements.append(SolverDisagreement(
                        case_name=case_name, objective=objective, solver=name,
                        reference=reference, value=value,
                        reference_value=ref_value, kind="feasibility"))
                elif value is not None and ref_value is not None:
                    scale = max(abs(ref_value), 1.0)
                    if abs(value - ref_value) > rel_tol * scale:
                        report.disagreements.append(SolverDisagreement(
                            case_name=case_name, objective=objective,
                            solver=name, reference=reference, value=value,
                            reference_value=ref_value, kind="value"))
    return report


def run_case(instance: ProblemInstance, objective: Objective,
             algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
             **solver_kwargs) -> CaseResult:
    """Run every requested algorithm on one problem instance."""
    case = CaseResult(case_name=instance.name or "unnamed", objective=objective,
                      size_signature=instance.size_signature)
    for name in algorithms:
        solver = get_solver(name, objective)
        start = time.perf_counter()
        try:
            mapping = solver(instance.pipeline, instance.network, instance.request,
                             **solver_kwargs)
            runtime = time.perf_counter() - start
            value = (mapping.delay_ms if objective is Objective.MIN_DELAY
                     else mapping.frame_rate_fps)
            case.add(AlgorithmResult(case_name=case.case_name, algorithm=name,
                                     objective=objective, value=value,
                                     runtime_s=runtime, mapping=mapping))
        except InfeasibleMappingError as exc:
            runtime = time.perf_counter() - start
            case.add(AlgorithmResult(case_name=case.case_name, algorithm=name,
                                     objective=objective, value=None,
                                     runtime_s=runtime, error=str(exc)))
        except ReproError as exc:  # pragma: no cover - defensive
            runtime = time.perf_counter() - start
            case.add(AlgorithmResult(case_name=case.case_name, algorithm=name,
                                     objective=objective, value=None,
                                     runtime_s=runtime, error=f"error: {exc}"))
    return case


def run_comparison(instances: Iterable[ProblemInstance], objective: Objective,
                   algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
                   **solver_kwargs) -> ComparisonRun:
    """Run every requested algorithm on every instance of a suite.

    The campaign is executed through the batch engine
    (:func:`repro.core.batch.solve_many`), one batch per algorithm.
    """
    suite = list(instances)
    run = ComparisonRun(objective=objective, algorithms=tuple(algorithms))
    run.cases = [CaseResult(case_name=inst.name or "unnamed", objective=objective,
                            size_signature=inst.size_signature)
                 for inst in suite]
    for name in algorithms:
        batch = solve_many(suite, solver=name, objective=objective,
                           **solver_kwargs)
        for case, item in zip(run.cases, batch):
            case.add(AlgorithmResult(
                case_name=case.case_name, algorithm=name,
                objective=objective,
                value=item.objective_value(objective),
                runtime_s=item.runtime_s,
                mapping=item.mapping, error=item.error))
    return run
