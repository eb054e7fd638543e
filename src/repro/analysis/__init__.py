"""Analysis, comparison and reporting layer (paper Section 4).

* :mod:`repro.analysis.comparison` — run algorithm suites over case suites,
* :mod:`repro.analysis.metrics` — result records and improvement ratios,
* :mod:`repro.analysis.reporting` — Fig. 2-style tables and mapping walkthroughs,
* :mod:`repro.analysis.plotting` — ASCII charts and CSV export (no matplotlib
  offline),
* :mod:`repro.analysis.experiments` — one driver per paper table/figure.
"""

from .comparison import (
    DEFAULT_ALGORITHMS,
    ELPC_ENGINES,
    AgreementReport,
    ComparisonRun,
    SolverDisagreement,
    check_solver_agreement,
    run_case,
    run_comparison,
)
from .export import mapping_to_dot, network_to_dot, write_dot
from .experiments import (
    Fig2Result,
    FigureSeriesResult,
    PathIllustrationResult,
    RuntimeScalingResult,
    TensorBatchSpeedupResult,
    VectorizedSpeedupResult,
    reproduce_fig2,
    reproduce_fig3,
    reproduce_fig4,
    reproduce_fig5,
    reproduce_fig6,
    runtime_scaling,
    tensor_batch_speedup,
    vectorized_speedup,
    write_all_outputs,
)
from .metrics import AlgorithmResult, CaseResult, improvement_ratio
from .plotting import ascii_line_chart, series_to_csv, write_csv
from .reporting import comparison_table, fig2_table, format_value, mapping_walkthrough
from .statistics import (
    ReplicatedCaseResult,
    SummaryStatistics,
    replicate_case,
    summarize_improvements,
)

__all__ = [
    "DEFAULT_ALGORITHMS", "ELPC_ENGINES", "ComparisonRun", "run_case", "run_comparison",
    "AgreementReport", "SolverDisagreement", "check_solver_agreement",
    "AlgorithmResult", "CaseResult", "improvement_ratio",
    "comparison_table", "fig2_table", "format_value", "mapping_walkthrough",
    "ascii_line_chart", "series_to_csv", "write_csv",
    "Fig2Result", "FigureSeriesResult", "PathIllustrationResult", "RuntimeScalingResult",
    "VectorizedSpeedupResult", "TensorBatchSpeedupResult",
    "reproduce_fig2", "reproduce_fig3", "reproduce_fig4", "reproduce_fig5",
    "reproduce_fig6", "runtime_scaling", "vectorized_speedup",
    "tensor_batch_speedup", "write_all_outputs",
    "SummaryStatistics", "ReplicatedCaseResult", "replicate_case",
    "summarize_improvements",
    "network_to_dot", "mapping_to_dot", "write_dot",
]
