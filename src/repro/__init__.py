"""repro — reproduction of Wu et al., "Optimizing Network Performance of
Computing Pipelines in Distributed Environments" (IPDPS 2008).

Public API highlights
---------------------
* :class:`repro.Pipeline`, :class:`repro.TransportNetwork`,
  :class:`repro.EndToEndRequest` — problem entities,
* :func:`repro.elpc_min_delay`, :func:`repro.elpc_max_frame_rate` — the ELPC
  algorithms (the paper's contribution),
* :func:`repro.elpc_min_delay_many`, :func:`repro.elpc_max_frame_rate_many` —
  the NumPy tensor engine solving one or many pipelines over one network in
  stacked array passes (``"elpc-tensor"``, the default engine), bit-identical
  to the ELPC algorithms above,
* :func:`repro.solve_many` — batch API to run one solver over many instances;
  ``solver="elpc-tensor"`` groups the batch by network and solves each group
  in one tensor call,
* :func:`repro.place_many` / :mod:`repro.placement` — multi-tenant joint
  placement: a batch of pipelines packed onto one cluster with finite
  per-node compute and per-link bandwidth budgets
  (:class:`repro.ClusterState`), via sequential packing (``"place-greedy"``)
  or a joint min-cost max-flow optimizer (``"place-flow"``),
* :class:`repro.SolveOptions` — one frozen bundle for the batch-dispatch
  knobs (solver, objective, solver_kwargs),
  accepted as ``options=`` by :func:`repro.solve_many`,
  :func:`repro.place_many` and the service layer,
* :func:`repro.solve` / :func:`repro.available_solvers` — name-based access to
  every algorithm including the Streamline and Greedy baselines,
* :mod:`repro.generators` — random pipelines/networks, the 20-case suite, and
  the domain workloads,
* :mod:`repro.simulation` — discrete-event replay of a mapping,
* :mod:`repro.measurement` — synthetic active-probe bandwidth / power estimation,
* :mod:`repro.analysis` — comparison harness, tables and ASCII figures,
* :mod:`repro.service` — micro-batching HTTP solve service (``repro serve``):
  concurrent requests coalesce into :func:`repro.solve_many` flushes,
* :mod:`repro.extensions` — future-work features (frame rate with reuse, DAG
  workflows, dynamic re-mapping).
"""

from ._version import PAPER, __version__
from .core import (
    BatchItemResult,
    BatchRunResult,
    Objective,
    PipelineMapping,
    available_solvers,
    elpc_max_frame_rate,
    elpc_max_frame_rate_many,
    elpc_max_frame_rate_tensor,
    elpc_min_delay,
    elpc_min_delay_many,
    elpc_min_delay_tensor,
    exhaustive_max_frame_rate,
    exhaustive_min_delay,
    get_solver,
    mapping_from_assignment,
    register_solver,
    solve,
    solve_many,
    place_many,
    SolveOptions,
)
from .exceptions import (
    AlgorithmError,
    CapacityError,
    InfeasibleMappingError,
    MeasurementError,
    ReproError,
    SimulationError,
    SpecificationError,
)
from .model import (
    CommunicationLink,
    ComputingModule,
    ComputingNode,
    EndToEndRequest,
    Pipeline,
    ProblemInstance,
    TransportNetwork,
    bottleneck_time_ms,
    end_to_end_delay_ms,
    frame_rate_fps,
    load_instance,
    save_instance,
)
from .placement import (
    ClusterState,
    PlacementItem,
    PlacementRequest,
    PlacementResult,
    available_placers,
    get_placer,
    register_placer,
    validate_placements,
)

__all__ = [
    "__version__", "PAPER",
    # entities
    "ComputingModule", "Pipeline", "ComputingNode", "CommunicationLink",
    "TransportNetwork", "EndToEndRequest", "ProblemInstance",
    "save_instance", "load_instance",
    # cost model
    "end_to_end_delay_ms", "bottleneck_time_ms", "frame_rate_fps",
    # algorithms
    "elpc_min_delay", "elpc_max_frame_rate",
    "elpc_min_delay_many", "elpc_max_frame_rate_many",
    "elpc_min_delay_tensor", "elpc_max_frame_rate_tensor",
    "exhaustive_min_delay", "exhaustive_max_frame_rate",
    "Objective", "PipelineMapping", "mapping_from_assignment",
    "solve", "get_solver", "register_solver", "available_solvers",
    # batch engine
    "solve_many", "SolveOptions", "BatchItemResult", "BatchRunResult",
    # multi-tenant placement
    "place_many", "ClusterState", "PlacementRequest", "PlacementItem",
    "PlacementResult", "validate_placements",
    "register_placer", "get_placer", "available_placers",
    # exceptions
    "ReproError", "SpecificationError", "InfeasibleMappingError",
    "CapacityError", "AlgorithmError", "SimulationError", "MeasurementError",
]
