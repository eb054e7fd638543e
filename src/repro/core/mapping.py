"""Mapping-result data structures shared by all solvers.

Every mapping algorithm in the library (ELPC, the exact oracles, and the
baselines) returns a :class:`PipelineMapping`, which couples

* the pipeline decomposition into contiguous module groups,
* the network path (one node per group, in order), and
* bookkeeping about which objective the solver optimised and how long it ran.

Objective values are always *re-derivable* from the mapping itself via the
analytic cost model (:mod:`repro.model.cost`); the convenience properties
:attr:`PipelineMapping.delay_ms` and :attr:`PipelineMapping.frame_rate_fps`
do exactly that, so a stored result can never disagree with its own mapping.

Structure is checked once per mapping.  The public constructor (and
:func:`mapping_from_assignment`, which every baseline and scalar engine goes
through) runs :func:`~repro.model.validation.validate_mapping_structure` on
each instance.  The tensor and warm engines build their mappings through
:meth:`PipelineMapping._trusted` instead: their groups come from splitting a
backtracked assignment at node changes (a contiguous cover by
construction), and the flush's assembly (``core/tensor.py::_assemble``)
checks every hop of every path against the dense view's CSR edges in one
array pass, raising the same :class:`~repro.exceptions.SpecificationError`
on a non-walk, so no engine-built mapping escapes the walk check.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..exceptions import SpecificationError
from ..model.cost import (
    bottleneck_time_ms,
    cost_breakdown,
    end_to_end_delay_ms,
    frame_rate_fps,
)
from ..model.network import EndToEndRequest, TransportNetwork
from ..model.pipeline import Pipeline
from ..model.validation import validate_mapping_structure
from ..types import Grouping, NodeId, NodePath


class Objective(str, enum.Enum):
    """Which network-performance objective a solver optimised.

    * :attr:`MIN_DELAY` — minimise the end-to-end delay (Eq. 1), interactive
      applications, node reuse allowed.
    * :attr:`MAX_FRAME_RATE` — maximise the steady-state frame rate, i.e.
      minimise the bottleneck time (Eq. 2), streaming applications; the
      paper's restricted variant forbids node reuse.
    """

    MIN_DELAY = "min_delay"
    MAX_FRAME_RATE = "max_frame_rate"


@dataclass(frozen=True)
class PipelineMapping:
    """A concrete placement of a pipeline onto a network path.

    Attributes
    ----------
    pipeline, network:
        The problem instance this mapping belongs to.
    groups:
        ``groups[i]`` lists the module ids executed on ``path[i]``; the groups
        are contiguous and ordered, and jointly cover all modules.
    path:
        The selected network walk (node reuse is expressed by repeating a node
        id in consecutive positions, or by revisiting it later when the walk
        loops).
    objective:
        Which objective the producing solver optimised.
    algorithm:
        Name of the producing algorithm (``"elpc"``, ``"streamline"``,
        ``"greedy"``, ``"exhaustive"`` ...).
    runtime_s:
        Wall-clock time the solver spent, in seconds.
    allow_reuse:
        Whether the producing solver was allowed to reuse nodes.
    extras:
        Free-form diagnostic payload (DP table sizes, visit counters, ...).
    """

    pipeline: Pipeline
    network: TransportNetwork
    groups: Grouping
    path: NodePath
    objective: Objective
    algorithm: str = "unknown"
    runtime_s: float = 0.0
    allow_reuse: bool = True
    extras: Dict[str, Any] = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        validate_mapping_structure(self.pipeline, self.network, self.groups, self.path)
        self._check_reuse()

    def _check_reuse(self) -> None:
        if not self.allow_reuse and len(set(self.path)) != len(self.path):
            raise SpecificationError(
                "mapping declares allow_reuse=False but its path revisits a node")

    @classmethod
    def _trusted(cls, pipeline: Pipeline, network: TransportNetwork,
                 groups: Grouping, path: NodePath, objective: Objective,
                 algorithm: str, runtime_s: float, allow_reuse: bool,
                 extras: Dict[str, Any]) -> "PipelineMapping":
        """Build a mapping whose structure the caller has already checked.

        Skips :func:`~repro.model.validation.validate_mapping_structure`
        (the per-hop ``is_walk`` / ``has_link`` chain); the no-reuse check
        still runs.  Only the engines' flush assembly calls it, after its
        batched walk check — see the module docstring.  The result is the
        same frozen object the public constructor would build.
        """
        mapping = object.__new__(cls)
        mapping.__dict__.update(
            pipeline=pipeline, network=network, groups=groups, path=path,
            objective=objective, algorithm=algorithm, runtime_s=runtime_s,
            allow_reuse=allow_reuse, extras=extras)
        if not allow_reuse:
            mapping._check_reuse()
        return mapping

    # ------------------------------------------------------------------ #
    # Objective values (always recomputed from the mapping itself)
    # ------------------------------------------------------------------ #
    @property
    def delay_ms(self) -> float:
        """End-to-end delay of this mapping (Eq. 1), in milliseconds."""
        return end_to_end_delay_ms(self.pipeline, self.network, self.groups, self.path)

    @property
    def bottleneck_ms(self) -> float:
        """Bottleneck time of this mapping (Eq. 2), in milliseconds."""
        return bottleneck_time_ms(self.pipeline, self.network, self.groups, self.path)

    @property
    def frame_rate_fps(self) -> float:
        """Steady-state frame rate implied by the bottleneck, frames/second."""
        return frame_rate_fps(self.pipeline, self.network, self.groups, self.path)

    @property
    def objective_value(self) -> float:
        """The value of the objective the solver optimised.

        Milliseconds for :attr:`Objective.MIN_DELAY`, frames per second for
        :attr:`Objective.MAX_FRAME_RATE`.
        """
        if self.objective is Objective.MIN_DELAY:
            return self.delay_ms
        return self.frame_rate_fps

    def breakdown(self):
        """Per-component cost decomposition (see :func:`repro.model.cost.cost_breakdown`)."""
        return cost_breakdown(self.pipeline, self.network, self.groups, self.path)

    # ------------------------------------------------------------------ #
    # Structure queries
    # ------------------------------------------------------------------ #
    @property
    def n_groups(self) -> int:
        """Number of module groups ``q`` (equals the mapped path length)."""
        return len(self.groups)

    @property
    def uses_node_reuse(self) -> bool:
        """``True`` when some node hosts more than one module group."""
        return len(set(self.path)) != len(self.path)

    def node_of_module(self, module_id: int) -> NodeId:
        """The network node executing module ``module_id``."""
        for group, node_id in zip(self.groups, self.path):
            if module_id in group:
                return node_id
        raise SpecificationError(f"module {module_id} not present in mapping")

    def assignment(self) -> List[NodeId]:
        """Per-module node assignment, index ``j`` → node of module ``j``."""
        out: List[NodeId] = [0] * self.pipeline.n_modules
        for group, node_id in zip(self.groups, self.path):
            for mid in group:
                out[mid] = node_id
        return out

    def modules_on_node(self, node_id: NodeId) -> List[int]:
        """All module ids mapped to ``node_id`` (possibly across several visits)."""
        out: List[int] = []
        for group, nid in zip(self.groups, self.path):
            if nid == node_id:
                out.extend(group)
        return sorted(out)

    def request(self) -> EndToEndRequest:
        """The end-to-end request this mapping serves (first/last path node)."""
        return EndToEndRequest(source=self.path[0], destination=self.path[-1])

    # ------------------------------------------------------------------ #
    # Serialization / presentation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """Compact JSON-compatible summary (does not embed the instance)."""
        # One bottleneck evaluation serves both fields (fps is its inverse,
        # see cost.frame_rate_fps) — to_dict sits on the service hot path.
        bottleneck = self.bottleneck_ms
        return {
            "algorithm": self.algorithm,
            "objective": self.objective.value,
            "groups": [list(g) for g in self.groups],
            "path": list(self.path),
            "delay_ms": self.delay_ms,
            "bottleneck_ms": bottleneck,
            "frame_rate_fps": (float("inf") if bottleneck <= 0.0
                               else 1e3 / bottleneck),
            "runtime_s": self.runtime_s,
            "allow_reuse": self.allow_reuse,
            "uses_node_reuse": self.uses_node_reuse,
        }

    def describe(self) -> str:
        """Multi-line human-readable description of the placement.

        Mirrors the narrative style of the paper's Fig. 3 / Fig. 4 captions
        ("the first two modules run on the source node ...").
        """
        lines = [
            f"algorithm       : {self.algorithm}",
            f"objective       : {self.objective.value}",
            f"path            : {' -> '.join(str(v) for v in self.path)}",
            f"end-to-end delay: {self.delay_ms:.3f} ms",
            f"bottleneck      : {self.bottleneck_ms:.3f} ms "
            f"({self.frame_rate_fps:.3f} frames/s)",
        ]
        for group, node_id in zip(self.groups, self.path):
            mods = ", ".join(f"M{m}" for m in group)
            lines.append(f"  node {node_id}: {mods}")
        bd = self.breakdown()
        lines.append(f"bottleneck component: {bd.bottleneck_kind} "
                     f"#{bd.bottleneck_index}")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (f"PipelineMapping({self.algorithm}, {self.objective.value}, "
                f"path={self.path}, delay={self.delay_ms:.2f}ms, "
                f"fps={self.frame_rate_fps:.2f})")


def mapping_from_assignment(pipeline: Pipeline, network: TransportNetwork,
                            assignment: Sequence[NodeId], *,
                            objective: Objective, algorithm: str = "assignment",
                            runtime_s: float = 0.0,
                            allow_reuse: bool = True) -> PipelineMapping:
    """Build a :class:`PipelineMapping` from a per-module node assignment.

    Consecutive modules assigned to the same node are merged into one group;
    consecutive modules assigned to different nodes require those nodes to be
    adjacent in the network (otherwise :class:`SpecificationError` is raised
    by the mapping constructor).
    """
    if len(assignment) != pipeline.n_modules:
        raise SpecificationError(
            f"assignment length {len(assignment)} != number of modules "
            f"{pipeline.n_modules}")
    groups: Grouping = []
    path: NodePath = []
    for module_id, node_id in enumerate(assignment):
        if path and node_id == path[-1]:
            groups[-1].append(module_id)
        else:
            groups.append([module_id])
            path.append(node_id)
    return PipelineMapping(
        pipeline=pipeline, network=network, groups=groups, path=path,
        objective=objective, algorithm=algorithm, runtime_s=runtime_s,
        allow_reuse=allow_reuse)
