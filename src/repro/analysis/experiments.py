"""High-level reproduction drivers: one function per paper artifact.

Each ``reproduce_*`` function regenerates one table or figure of the paper's
evaluation section from the fixed case suite and returns a structured result
(series, table text, mappings) that the benchmarks assert on, the examples
print, and :func:`write_all_outputs` dumps to disk next to EXPERIMENTS.md.

Paper artifact → function map (also in DESIGN.md):

========  ==========================================  =========================
Artifact  Content                                      Function
========  ==========================================  =========================
Fig. 2    20-case table, both objectives, 3 algorithms :func:`reproduce_fig2`
Fig. 3    min-delay path on the small instance          :func:`reproduce_fig3`
Fig. 4    max-frame-rate path on the small instance     :func:`reproduce_fig4`
Fig. 5    delay curves across the 20 cases              :func:`reproduce_fig5`
Fig. 6    frame-rate curves across the 20 cases         :func:`reproduce_fig6`
§4.3      algorithm runtime scaling                     :func:`runtime_scaling`
========  ==========================================  =========================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.batch import solve_many
from ..core.elpc_delay import elpc_min_delay
from ..core.elpc_framerate import elpc_max_frame_rate
from ..core.mapping import Objective, PipelineMapping
from ..generators.cases import paper_case_suite, small_illustration_case
from ..generators.network_gen import random_network
from ..generators.pipeline_gen import random_pipeline
from ..generators.random_state import rng_from_seed
from ..model.serialization import ProblemInstance
from .comparison import DEFAULT_ALGORITHMS, ComparisonRun, run_comparison
from .plotting import ascii_line_chart, series_to_csv
from .reporting import comparison_table, fig2_table, mapping_walkthrough

__all__ = [
    "Fig2Result", "FigureSeriesResult", "PathIllustrationResult", "RuntimeScalingResult",
    "VectorizedSpeedupResult", "TensorBatchSpeedupResult",
    "reproduce_fig2", "reproduce_fig3", "reproduce_fig4",
    "reproduce_fig5", "reproduce_fig6", "runtime_scaling", "vectorized_speedup",
    "tensor_batch_speedup", "write_all_outputs",
]


# --------------------------------------------------------------------------- #
# Result containers
# --------------------------------------------------------------------------- #
@dataclass
class Fig2Result:
    """Reproduction of the Fig. 2 table (both objectives, all cases)."""

    delay_run: ComparisonRun
    framerate_run: ComparisonRun
    table_text: str

    def elpc_wins_delay(self) -> int:
        """Cases where ELPC is best or tied on minimum delay."""
        return self.delay_run.win_count("elpc")

    def elpc_wins_framerate(self) -> int:
        """Cases where ELPC is best or tied on maximum frame rate."""
        return self.framerate_run.win_count("elpc")


@dataclass
class FigureSeriesResult:
    """Reproduction of a per-case curve figure (Fig. 5 or Fig. 6)."""

    objective: Objective
    case_labels: List[str]
    series: Dict[str, List[Optional[float]]]
    chart_text: str
    csv_text: str
    run: ComparisonRun


@dataclass
class PathIllustrationResult:
    """Reproduction of a mapping-illustration figure (Fig. 3 or Fig. 4)."""

    instance: ProblemInstance
    mapping: PipelineMapping
    walkthrough_text: str


@dataclass
class RuntimeScalingResult:
    """Measured ELPC runtimes across problem sizes (§4.3 scaling claim)."""

    sizes: List[Tuple[int, int, int]]          # (modules, nodes, links)
    delay_runtimes_s: List[float]
    framerate_runtimes_s: List[float]
    solver: str = "elpc"

    def work_units(self) -> List[float]:
        """The theoretical work n·|E| for each measured size."""
        return [float(m * l) for (m, _n, l) in self.sizes]

    def delay_runtime_per_unit(self) -> List[float]:
        """Measured delay-DP runtime divided by n·|E| (should stay roughly flat)."""
        return [t / w for t, w in zip(self.delay_runtimes_s, self.work_units())]


@dataclass
class VectorizedSpeedupResult:
    """Scalar-vs-tensor ELPC runtime comparison across problem sizes.

    ``speedup = scalar_runtime / tensor_runtime`` per size, where the
    ``tensor`` pass is the ``elpc-tensor`` engine solving one instance at a
    time, for the min-delay DP and the max-frame-rate DP separately.
    Produced by :func:`vectorized_speedup`; asserted on by
    ``benchmarks/test_bench_vectorized_speedup.py`` and printed by
    ``repro bench-scaling``.
    """

    sizes: List[Tuple[int, int, int]]          # (modules, nodes, links)
    scalar: RuntimeScalingResult
    tensor: RuntimeScalingResult

    def delay_speedups(self) -> List[float]:
        """Per-size scalar/tensor runtime ratio of the min-delay DP."""
        return [s / v for s, v in zip(self.scalar.delay_runtimes_s,
                                      self.tensor.delay_runtimes_s)]

    def framerate_speedups(self) -> List[float]:
        """Per-size scalar/tensor runtime ratio of the frame-rate DP."""
        return [s / v for s, v in zip(self.scalar.framerate_runtimes_s,
                                      self.tensor.framerate_runtimes_s)]

    def table_text(self) -> str:
        """Human-readable per-size runtime/speedup table."""
        header = (f"{'modules':>8} {'nodes':>6} {'links':>6} "
                  f"{'delay elpc':>12} {'delay tensor':>12} {'x':>6} "
                  f"{'rate elpc':>12} {'rate tensor':>12} {'x':>6}")
        lines = ["elpc-tensor speedup over scalar elpc (best-of-run seconds)",
                 header, "-" * len(header)]
        for (m, n, l), sd, vd, xd, sf, vf, xf in zip(
                self.sizes, self.scalar.delay_runtimes_s,
                self.tensor.delay_runtimes_s, self.delay_speedups(),
                self.scalar.framerate_runtimes_s,
                self.tensor.framerate_runtimes_s, self.framerate_speedups()):
            lines.append(f"{m:>8} {n:>6} {l:>6} "
                         f"{sd:>12.6f} {vd:>12.6f} {xd:>6.1f} "
                         f"{sf:>12.6f} {vf:>12.6f} {xf:>6.1f}")
        return "\n".join(lines)


@dataclass
class TensorBatchSpeedupResult:
    """Looped-vs-tensor throughput of solving many pipelines over one network.

    For each batch size ``B`` the same ``B`` instances (random pipelines and
    requests over a single shared network) are solved twice through
    :func:`repro.core.batch.solve_many` — once looped, one
    ``solve_many([instance])`` call per item, once as one grouped call — and
    the wall times are paired up.  Both passes run the ``elpc-tensor`` engine.
    ``value_mismatches`` counts instances on which the two paths disagreed
    (always 0, and ``benchmarks/test_bench_tensor_batch.py`` asserts it).
    """

    batch_sizes: List[int]
    n_modules: int
    k_nodes: int
    n_links: int
    looped_s: List[float]
    tensor_s: List[float]
    value_mismatches: int = 0

    def speedups(self) -> List[float]:
        """Per-batch-size looped/tensor wall-time ratio."""
        return [l / t for l, t in zip(self.looped_s, self.tensor_s)]

    def table_text(self) -> str:
        """Human-readable per-batch-size throughput table."""
        header = (f"{'batch':>6} {'modules':>8} {'nodes':>6} {'links':>6} "
                  f"{'looped':>12} {'tensor':>12} {'x':>6}")
        lines = [("Tensor batch engine speedup over one solve per item "
                  "(best-of-run seconds)"),
                 header, "-" * len(header)]
        for B, looped, tensor, ratio in zip(self.batch_sizes, self.looped_s,
                                            self.tensor_s, self.speedups()):
            lines.append(f"{B:>6} {self.n_modules:>8} {self.k_nodes:>6} "
                         f"{self.n_links:>6} {looped:>12.6f} {tensor:>12.6f} "
                         f"{ratio:>6.1f}")
        return "\n".join(lines)

    def metrics(self) -> Dict[str, Dict[str, float]]:
        """Flat metric dict in the shared ``repro-bench/1`` JSON schema."""
        out: Dict[str, Dict[str, float]] = {}
        for B, looped, tensor in zip(self.batch_sizes, self.looped_s,
                                     self.tensor_s):
            out[f"tensor_batch/looped_B{B}"] = {"mean_s": looped}
            out[f"tensor_batch/tensor_B{B}"] = {"mean_s": tensor}
        return out


def tensor_batch_speedup(*, batch_sizes: Sequence[int] = (8, 32, 64),
                         n_modules: int = 40, k_nodes: int = 48,
                         n_links: int = 96, seed: int = 11,
                         repetitions: int = 1,
                         objective: Objective = Objective.MIN_DELAY
                         ) -> TensorBatchSpeedupResult:
    """Measure the tensor engine's batched-throughput win over a per-item loop.

    One network of ``k_nodes`` / ``n_links`` is shared by ``max(batch_sizes)``
    random pipeline/request instances; for each requested batch size the first
    ``B`` instances are solved through both paths (best wall time of
    ``repetitions`` passes each).  Both passes run warm — the dense view and
    its CSR edge layout are built once, exactly as in a sweep campaign — and
    every produced objective value is cross-checked so the timing claim can
    never drift away from the equivalence claim.
    """
    batch_sizes = sorted(int(b) for b in batch_sizes)
    network = random_network(k_nodes, n_links, seed=seed)
    from ..generators.network_gen import random_request

    instances = [
        ProblemInstance(pipeline=random_pipeline(n_modules, seed=seed + 100 + b),
                        network=network,
                        request=random_request(network, seed=seed + 200 + b,
                                               min_hop_distance=2),
                        name=f"tensor-batch-{b}")
        for b in range(max(batch_sizes))
    ]
    network.dense_view()  # warm the shared view outside the timed region

    looped_s: List[float] = []
    tensor_s: List[float] = []
    mismatches = 0
    for B in batch_sizes:
        sub = instances[:B]
        best_looped = best_tensor = float("inf")
        for _ in range(max(repetitions, 1)):
            looped = [solve_many([instance], solver="elpc-tensor",
                                 objective=objective)
                      for instance in sub]
            tensor = solve_many(sub, solver="elpc-tensor", objective=objective)
            best_looped = min(best_looped,
                              sum(run.wall_time_s for run in looped))
            best_tensor = min(best_tensor, tensor.wall_time_s)
            looped_values = [v for run in looped for v in run.values()]
            for a, b in zip(looped_values, tensor.values()):
                if a != b:
                    mismatches += 1
        looped_s.append(best_looped)
        tensor_s.append(best_tensor)
    return TensorBatchSpeedupResult(
        batch_sizes=list(batch_sizes), n_modules=n_modules, k_nodes=k_nodes,
        n_links=n_links, looped_s=looped_s, tensor_s=tensor_s,
        value_mismatches=mismatches)


# --------------------------------------------------------------------------- #
# Reproduction drivers
# --------------------------------------------------------------------------- #
def reproduce_fig2(*, max_cases: Optional[int] = None,
                   algorithms: Sequence[str] = DEFAULT_ALGORITHMS) -> Fig2Result:
    """Regenerate the Fig. 2 comparison table over the fixed case suite."""
    suite = paper_case_suite(max_cases=max_cases)
    delay_run = run_comparison(suite, Objective.MIN_DELAY, algorithms)
    framerate_run = run_comparison(suite, Objective.MAX_FRAME_RATE, algorithms)
    table = fig2_table(delay_run, framerate_run)
    return Fig2Result(delay_run=delay_run, framerate_run=framerate_run, table_text=table)


def reproduce_fig3(*, seed: int = 42) -> PathIllustrationResult:
    """Regenerate Fig. 3: ELPC's minimum-delay path on the small illustration case."""
    instance = small_illustration_case(seed=seed)
    mapping = elpc_min_delay(instance.pipeline, instance.network, instance.request)
    text = mapping_walkthrough(
        mapping, title="Fig. 3 — optimal path with minimum end-to-end delay (ELPC)")
    return PathIllustrationResult(instance=instance, mapping=mapping,
                                  walkthrough_text=text)


def reproduce_fig4(*, seed: int = 42) -> PathIllustrationResult:
    """Regenerate Fig. 4: ELPC's maximum-frame-rate path on the small illustration case."""
    instance = small_illustration_case(seed=seed)
    mapping = elpc_max_frame_rate(instance.pipeline, instance.network, instance.request)
    text = mapping_walkthrough(
        mapping, title="Fig. 4 — optimal path with maximum frame rate (ELPC)")
    return PathIllustrationResult(instance=instance, mapping=mapping,
                                  walkthrough_text=text)


def _series_result(run: ComparisonRun, objective: Objective,
                   y_label: str, title: str) -> FigureSeriesResult:
    case_labels = [str(i + 1) for i in range(len(run.cases))]
    series = {name: run.series(name) for name in run.algorithms}
    chart = ascii_line_chart(series, x_labels=case_labels, title=title, y_label=y_label)
    csv_text = series_to_csv(series, x_labels=case_labels, x_name="case")
    return FigureSeriesResult(objective=objective, case_labels=case_labels,
                              series=series, chart_text=chart, csv_text=csv_text,
                              run=run)


def reproduce_fig5(*, max_cases: Optional[int] = None,
                   algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
                   run: Optional[ComparisonRun] = None) -> FigureSeriesResult:
    """Regenerate Fig. 5: minimum end-to-end delay per case for all algorithms.

    Pass an existing ``run`` (e.g. from :func:`reproduce_fig2`) to avoid
    re-solving the suite.
    """
    if run is None:
        suite = paper_case_suite(max_cases=max_cases)
        run = run_comparison(suite, Objective.MIN_DELAY, algorithms)
    return _series_result(run, Objective.MIN_DELAY,
                          "minimum end-to-end delay (ms)",
                          "Fig. 5 — minimum end-to-end delay per case")


def reproduce_fig6(*, max_cases: Optional[int] = None,
                   algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
                   run: Optional[ComparisonRun] = None) -> FigureSeriesResult:
    """Regenerate Fig. 6: maximum frame rate per case for all algorithms."""
    if run is None:
        suite = paper_case_suite(max_cases=max_cases)
        run = run_comparison(suite, Objective.MAX_FRAME_RATE, algorithms)
    return _series_result(run, Objective.MAX_FRAME_RATE,
                          "maximum frame rate (frames/s)",
                          "Fig. 6 — maximum frame rate per case")


def _scaling_instances(sizes: Sequence[Tuple[int, int, int]],
                       seed: int) -> List[ProblemInstance]:
    """Draw one random instance per (modules, nodes, links) size triple."""
    rng = rng_from_seed(seed)
    from ..generators.network_gen import random_request

    instances: List[ProblemInstance] = []
    for (m, n, l) in sizes:
        pipeline = random_pipeline(m, seed=rng)
        network = random_network(n, l, seed=rng)
        request = random_request(network, seed=rng, min_hop_distance=2)
        instances.append(ProblemInstance(pipeline=pipeline, network=network,
                                         request=request,
                                         name=f"scaling-{m}x{n}x{l}"))
    return instances


def runtime_scaling(*, sizes: Optional[Sequence[Tuple[int, int, int]]] = None,
                    seed: int = 7, repetitions: int = 1,
                    solver: str = "elpc") -> RuntimeScalingResult:
    """Measure ELPC runtimes across problem sizes (the §4.3 "milliseconds to seconds" claim).

    ``sizes`` is a sequence of (modules, nodes, links) triples; the default
    sweep spans two orders of magnitude of n·|E| work.  The sweep runs through
    the batch engine (:func:`repro.core.batch.solve_many`): ``solver`` picks
    any registered algorithm pair by name (``"elpc"``, the default, measures
    the scalar reference, ``"elpc-tensor"`` the tensor engine).  Per-size
    runtime is the best of ``repetitions`` passes.  Infeasible frame-rate instances still contribute
    their (failed) solve time, as the paper's scaling study counts algorithm
    work, not solution quality.
    """
    if sizes is None:
        sizes = [(5, 10, 20), (10, 30, 90), (20, 60, 240),
                 (30, 120, 600), (40, 250, 1200), (60, 500, 3000)]
    instances = _scaling_instances(sizes, seed)
    delay_times = [float("inf")] * len(instances)
    framerate_times = [float("inf")] * len(instances)
    for _ in range(max(repetitions, 1)):
        delay_batch = solve_many(instances, solver=solver,
                                 objective=Objective.MIN_DELAY)
        framerate_batch = solve_many(instances, solver=solver,
                                     objective=Objective.MAX_FRAME_RATE)
        delay_times = [min(b, item.runtime_s)
                       for b, item in zip(delay_times, delay_batch)]
        framerate_times = [min(b, item.runtime_s)
                           for b, item in zip(framerate_times,
                                              framerate_batch)]
    return RuntimeScalingResult(sizes=[tuple(s) for s in sizes],
                                delay_runtimes_s=delay_times,
                                framerate_runtimes_s=framerate_times,
                                solver=solver)


def vectorized_speedup(*, sizes: Optional[Sequence[Tuple[int, int, int]]] = None,
                       seed: int = 7, repetitions: int = 1
                       ) -> VectorizedSpeedupResult:
    """Measure the ``elpc-tensor`` engine's speedup over the scalar ``elpc`` DP.

    Runs :func:`runtime_scaling` twice over the *same* instances (same seed)
    — once with the scalar solver, once with the tensor engine, one instance
    per call — and pairs the runtimes up.  The tensor pass is warmed by the
    scalar pass's dense view only through the per-network cache, so its
    first solve still pays the one-off O(k²) view construction, exactly what
    a cold production solve would.
    """
    if sizes is None:
        sizes = [(10, 30, 90), (20, 60, 240), (30, 120, 600), (40, 250, 1200)]
    scalar = runtime_scaling(sizes=sizes, seed=seed, repetitions=repetitions,
                             solver="elpc")
    tensor = runtime_scaling(sizes=sizes, seed=seed, repetitions=repetitions,
                             solver="elpc-tensor")
    return VectorizedSpeedupResult(sizes=[tuple(s) for s in sizes],
                                   scalar=scalar, tensor=tensor)


# --------------------------------------------------------------------------- #
# Disk output
# --------------------------------------------------------------------------- #
def write_all_outputs(output_dir: Union[str, Path], *,
                      max_cases: Optional[int] = None) -> Dict[str, Path]:
    """Regenerate every artifact and write text/CSV outputs under ``output_dir``.

    Returns a mapping of artifact name to the path written.  Used by
    ``examples/reproduce_paper.py`` and handy for refreshing EXPERIMENTS.md.
    """
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: Dict[str, Path] = {}

    fig2 = reproduce_fig2(max_cases=max_cases)
    written["fig2"] = out / "fig2_table.txt"
    written["fig2"].write_text(fig2.table_text + "\n", encoding="utf-8")

    from .export import mapping_to_dot

    fig3 = reproduce_fig3()
    written["fig3"] = out / "fig3_min_delay_path.txt"
    written["fig3"].write_text(fig3.walkthrough_text + "\n", encoding="utf-8")
    written["fig3_dot"] = out / "fig3_min_delay_path.dot"
    written["fig3_dot"].write_text(
        mapping_to_dot(fig3.mapping, name="fig3-min-delay"), encoding="utf-8")

    fig4 = reproduce_fig4()
    written["fig4"] = out / "fig4_max_framerate_path.txt"
    written["fig4"].write_text(fig4.walkthrough_text + "\n", encoding="utf-8")
    written["fig4_dot"] = out / "fig4_max_framerate_path.dot"
    written["fig4_dot"].write_text(
        mapping_to_dot(fig4.mapping, name="fig4-max-framerate"), encoding="utf-8")

    fig5 = reproduce_fig5(run=fig2.delay_run)
    written["fig5"] = out / "fig5_delay_curves.txt"
    written["fig5"].write_text(fig5.chart_text + "\n", encoding="utf-8")
    written["fig5_csv"] = out / "fig5_delay_curves.csv"
    written["fig5_csv"].write_text(fig5.csv_text, encoding="utf-8")

    fig6 = reproduce_fig6(run=fig2.framerate_run)
    written["fig6"] = out / "fig6_framerate_curves.txt"
    written["fig6"].write_text(fig6.chart_text + "\n", encoding="utf-8")
    written["fig6_csv"] = out / "fig6_framerate_curves.csv"
    written["fig6_csv"].write_text(fig6.csv_text, encoding="utf-8")

    scaling = runtime_scaling()
    lines = ["modules,nodes,links,work_n_times_E,elpc_delay_runtime_s,elpc_framerate_runtime_s"]
    for (m, n, l), td, tf in zip(scaling.sizes, scaling.delay_runtimes_s,
                                 scaling.framerate_runtimes_s):
        lines.append(f"{m},{n},{l},{m * l},{td:.6f},{tf:.6f}")
    written["runtime_scaling"] = out / "runtime_scaling.csv"
    written["runtime_scaling"].write_text("\n".join(lines) + "\n", encoding="utf-8")

    return written
