"""Registry of mapping algorithms, keyed by name and objective.

The comparison harness (:mod:`repro.analysis.comparison`), the CLI and the
benchmarks all look up solvers by name ("elpc", "streamline", "greedy", ...),
so adding a new algorithm to the comparison only requires registering it here
(or calling :func:`register_solver` from its own module).

A *solver* is any callable with the uniform signature::

    solver(pipeline, network, request, **kwargs) -> PipelineMapping

Solvers for the two objectives are registered separately because some
algorithms only exist for one of them.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from ..exceptions import SpecificationError
from ..model.network import EndToEndRequest, TransportNetwork
from ..model.pipeline import Pipeline
from .mapping import Objective, PipelineMapping

__all__ = [
    "Solver",
    "register_solver",
    "get_solver",
    "available_solvers",
    "solve",
]

Solver = Callable[..., PipelineMapping]

_REGISTRY: Dict[Tuple[str, Objective], Solver] = {}
_BUILTINS_LOADED = False


def register_solver(name: str, objective: Objective, solver: Solver, *,
                    overwrite: bool = False) -> None:
    """Register ``solver`` under ``(name, objective)``.

    Raises :class:`SpecificationError` on duplicate registration unless
    ``overwrite`` is given.  The library's built-in algorithms are loaded
    *first*, so the behaviour does not depend on whether a lookup already
    happened: overriding a builtin (say ``"greedy"``) always requires
    ``overwrite=True`` and the override always wins — it can never be
    silently clobbered by a later builtin load.
    """
    _load_builtins()
    key = (name.lower(), objective)
    if key in _REGISTRY and not overwrite:
        raise SpecificationError(
            f"solver {name!r} for objective {objective.value!r} is already registered")
    _REGISTRY[key] = solver


def _load_builtins() -> None:
    """Populate the registry with the library's own algorithms (idempotent).

    Registration uses *setdefault* semantics — a ``(name, objective)`` key
    already present (a user registration that beat the builtin load, however
    it got there) is left untouched, so user solvers are never clobbered.
    """
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    _BUILTINS_LOADED = True  # set first: register_solver() re-enters this
    try:
        _import_and_register_builtins()
    except BaseException:
        _BUILTINS_LOADED = False
        raise


def _import_and_register_builtins() -> None:
    # Imported lazily to avoid import cycles between core and baselines.
    from ..baselines.dcp import dcp_min_delay
    from ..baselines.greedy import greedy_max_frame_rate, greedy_min_delay
    from ..baselines.naive import (
        direct_path_max_frame_rate,
        direct_path_min_delay,
        source_only_min_delay,
    )
    from ..baselines.random_mapping import random_max_frame_rate, random_min_delay
    from ..baselines.streamline import streamline_max_frame_rate, streamline_min_delay
    from ..extensions.framerate_reuse import elpc_max_frame_rate_with_reuse
    from .elpc_delay import elpc_min_delay
    from .elpc_framerate import elpc_max_frame_rate
    from .exact import exhaustive_max_frame_rate, exhaustive_min_delay
    from .tensor import elpc_max_frame_rate_tensor, elpc_min_delay_tensor

    pairs = [
        ("elpc", Objective.MIN_DELAY, elpc_min_delay),
        ("elpc", Objective.MAX_FRAME_RATE, elpc_max_frame_rate),
        ("elpc-tensor", Objective.MIN_DELAY, elpc_min_delay_tensor),
        ("elpc-tensor", Objective.MAX_FRAME_RATE, elpc_max_frame_rate_tensor),
        ("elpc-reuse", Objective.MAX_FRAME_RATE, elpc_max_frame_rate_with_reuse),
        ("streamline", Objective.MIN_DELAY, streamline_min_delay),
        ("streamline", Objective.MAX_FRAME_RATE, streamline_max_frame_rate),
        ("greedy", Objective.MIN_DELAY, greedy_min_delay),
        ("greedy", Objective.MAX_FRAME_RATE, greedy_max_frame_rate),
        ("dcp", Objective.MIN_DELAY, dcp_min_delay),
        ("random", Objective.MIN_DELAY, random_min_delay),
        ("random", Objective.MAX_FRAME_RATE, random_max_frame_rate),
        ("direct-path", Objective.MIN_DELAY, direct_path_min_delay),
        ("direct-path", Objective.MAX_FRAME_RATE, direct_path_max_frame_rate),
        ("source-only", Objective.MIN_DELAY, source_only_min_delay),
        ("exhaustive", Objective.MIN_DELAY, exhaustive_min_delay),
        ("exhaustive", Objective.MAX_FRAME_RATE, exhaustive_max_frame_rate),
    ]
    for name, objective, solver in pairs:
        _REGISTRY.setdefault((name.lower(), objective), solver)


def get_solver(name: str, objective: Objective) -> Solver:
    """Look up a registered solver; raises :class:`SpecificationError` if unknown."""
    _load_builtins()
    key = (name.lower(), objective)
    try:
        return _REGISTRY[key]
    except KeyError:
        known = sorted({n for (n, o) in _REGISTRY if o is objective})
        raise SpecificationError(
            f"unknown solver {name!r} for objective {objective.value!r}; "
            f"known solvers: {known}") from None


def available_solvers(objective: Objective | None = None) -> List[str]:
    """Names of registered solvers, optionally filtered by objective."""
    _load_builtins()
    if objective is None:
        return sorted({n for (n, _o) in _REGISTRY})
    return sorted({n for (n, o) in _REGISTRY if o is objective})


def solve(name: str, pipeline: Pipeline, network: TransportNetwork,
          request: EndToEndRequest, objective: Objective,
          **kwargs) -> PipelineMapping:
    """Convenience wrapper: look up and invoke a solver in one call."""
    solver = get_solver(name, objective)
    return solver(pipeline, network, request, **kwargs)
