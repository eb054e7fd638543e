"""The paper's primary contribution: the ELPC mapping algorithms.

* :func:`elpc_min_delay` — optimal dynamic program for minimum end-to-end
  delay with node reuse (interactive applications).
* :func:`elpc_max_frame_rate` — dynamic-programming heuristic for maximum
  frame rate without node reuse (streaming applications).
* :mod:`repro.core.tensor` — the NumPy engine for both DPs
  (:func:`elpc_min_delay_many` / :func:`elpc_max_frame_rate_many`, registered
  as ``"elpc-tensor"``) that advances one or many pipelines' DPs over one
  network in stacked array passes, bit-identical to the scalar references
  (which stay as the test oracle).
* :mod:`repro.core.batch` — :func:`solve_many`, the batch API behind the
  experiment sweeps and the CLI; same-network groups of an ``"elpc-tensor"``
  batch run through the tensor engine in one call per group, sequentially and
  inside every worker chunk alike.
* :mod:`repro.core.parallel` — :class:`ParallelBatchRunner`, the
  shared-memory worker-pool runtime behind ``solve_many(workers=N)``:
  networks are exported once per topology, instances travel as lightweight
  chunked specs, and results stay bit-identical to sequential solves.
* :mod:`repro.core.exact` — exponential optimality oracles used by the tests
  and the ablation benchmarks.
* :mod:`repro.core.reduction` — the Hamiltonian-Path → ENSP reduction behind
  the NP-completeness theorem.
* :class:`PipelineMapping` / :class:`Objective` — the result types shared by
  every solver, and :mod:`repro.core.registry` to look solvers up by name.
"""

from .alternatives import (
    FailureImpact,
    FaultTolerancePlan,
    fault_tolerance_plan,
    k_alternative_mappings,
    remove_nodes,
    solve_excluding_nodes,
)
from .dp_table import DPCell, DPTable
from .elpc_delay import elpc_min_delay
from .elpc_framerate import elpc_max_frame_rate
from .exact import (
    enumerate_exact_hop_paths,
    exhaustive_max_frame_rate,
    exhaustive_min_delay,
)
from .mapping import Objective, PipelineMapping, mapping_from_assignment
from .reduction import (
    ENSPInstance,
    hamiltonian_path_to_ensp,
    has_hamiltonian_path,
    solve_ensp_exact,
    verify_ensp_certificate,
)
from .batch import (
    BatchItemResult,
    BatchRunResult,
    SolveOptions,
    place_many,
    solve_many,
)
from .parallel import ParallelBatchRunner
from .registry import available_solvers, get_solver, register_solver, solve
from .tensor import (
    elpc_max_frame_rate_many,
    elpc_max_frame_rate_tensor,
    elpc_min_delay_many,
    elpc_min_delay_tensor,
)
from .warm import WarmState, elpc_max_frame_rate_warm, elpc_min_delay_warm

__all__ = [
    "DPCell", "DPTable",
    "elpc_min_delay", "elpc_max_frame_rate",
    "WarmState", "elpc_min_delay_warm", "elpc_max_frame_rate_warm",
    "elpc_min_delay_many", "elpc_max_frame_rate_many",
    "elpc_min_delay_tensor", "elpc_max_frame_rate_tensor",
    "BatchItemResult", "BatchRunResult", "SolveOptions", "solve_many",
    "place_many", "ParallelBatchRunner",
    "exhaustive_min_delay", "exhaustive_max_frame_rate", "enumerate_exact_hop_paths",
    "Objective", "PipelineMapping", "mapping_from_assignment",
    "ENSPInstance", "hamiltonian_path_to_ensp", "verify_ensp_certificate",
    "solve_ensp_exact", "has_hamiltonian_path",
    "register_solver", "get_solver", "available_solvers", "solve",
    "FailureImpact", "FaultTolerancePlan", "fault_tolerance_plan",
    "k_alternative_mappings", "remove_nodes", "solve_excluding_nodes",
]
