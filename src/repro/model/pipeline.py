"""Linear computing pipeline (the paper's Section 2.1 "general computing pipeline").

A :class:`Pipeline` is an ordered sequence of :class:`~repro.model.module.ComputingModule`
objects ``M1, M2, ..., Mn`` where, by the paper's convention,

* ``M1`` is the *data source*: it performs no computation and only emits data
  of size :math:`m_1` to its successor, and
* ``Mn`` is the *end user / terminal*: it computes on its input but transfers
  no further data.

A pipeline with only two end modules reduces to the traditional client/server
computing paradigm, which the class supports as the minimal legal size.

The class also provides the *contiguous grouping* machinery used by every
mapping algorithm: a mapping decomposes the pipeline into ``q`` groups of
consecutive modules :math:`g_1, ..., g_q` that are each placed on one network
node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import SpecificationError
from ..types import Grouping, ModuleId
from .module import ComputingModule, sink_module, source_module


@dataclass(frozen=True, slots=True)
class Pipeline:
    """An immutable linear computing pipeline.

    Parameters
    ----------
    modules:
        The ordered modules.  At least two are required (source and sink).
        Module ids must be the consecutive integers ``0..n-1`` and the
        declared ``input_bytes`` of module ``j`` must equal the
        ``output_bytes`` of module ``j-1`` (the pipeline is a chain: each
        stage consumes exactly what its predecessor produced).
    name:
        Optional human-readable label (e.g. ``"remote visualization"``).
    """

    modules: Tuple[ComputingModule, ...]
    name: Optional[str] = None
    metadata: Dict[str, Any] = field(default_factory=dict, compare=False)
    #: Cache behind :meth:`stage_vectors`, filled on first use.
    _stage_vectors: Optional[np.ndarray] = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        mods = tuple(self.modules)
        object.__setattr__(self, "modules", mods)
        if len(mods) < 2:
            raise SpecificationError(
                "a pipeline needs at least 2 modules (data source and end user), "
                f"got {len(mods)}")
        for idx, mod in enumerate(mods):
            if mod.module_id != idx:
                raise SpecificationError(
                    f"module ids must be consecutive integers starting at 0; "
                    f"position {idx} holds module_id={mod.module_id}")
        for prev, nxt in zip(mods, mods[1:]):
            if prev.output_bytes != nxt.input_bytes:
                raise SpecificationError(
                    f"data-size mismatch between module {prev.module_id} "
                    f"(output {prev.output_bytes}B) and module {nxt.module_id} "
                    f"(input {nxt.input_bytes}B)")
        if mods[0].complexity != 0.0 or mods[0].input_bytes != 0.0:
            raise SpecificationError(
                "the first module must be a pure data source "
                "(complexity == 0 and input_bytes == 0)")
        if mods[-1].output_bytes != 0.0:
            raise SpecificationError(
                "the last module must be a terminal (output_bytes == 0)")

    # ------------------------------------------------------------------ #
    # Basic container protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.modules)

    def __iter__(self) -> Iterator[ComputingModule]:
        return iter(self.modules)

    def __getitem__(self, index: int) -> ComputingModule:
        return self.modules[index]

    @property
    def n_modules(self) -> int:
        """Number of modules ``n`` (including source and sink)."""
        return len(self.modules)

    @property
    def source(self) -> ComputingModule:
        """The data-source module :math:`M_1`."""
        return self.modules[0]

    @property
    def sink(self) -> ComputingModule:
        """The end-user (terminal) module :math:`M_n`."""
        return self.modules[-1]

    @property
    def interior(self) -> Tuple[ComputingModule, ...]:
        """All modules strictly between the source and the sink."""
        return self.modules[1:-1]

    # ------------------------------------------------------------------ #
    # Data-flow quantities
    # ------------------------------------------------------------------ #
    def message_size(self, module_id: ModuleId) -> float:
        """Size :math:`m_j` of the message emitted by module ``module_id``.

        This is the data that must cross a network link whenever module
        ``module_id`` and module ``module_id + 1`` run on different nodes.
        """
        if not 0 <= module_id < self.n_modules:
            raise SpecificationError(
                f"module_id {module_id} out of range 0..{self.n_modules - 1}")
        return self.modules[module_id].output_bytes

    def total_workload(self) -> float:
        """Sum of abstract operation counts :math:`\\sum_j c_j m_{j-1}` over all modules."""
        return sum(mod.workload for mod in self.modules)

    def total_data_volume(self) -> float:
        """Sum of all inter-module message sizes :math:`\\sum_j m_j`."""
        return sum(mod.output_bytes for mod in self.modules)

    def workloads(self) -> List[float]:
        """Per-module abstract operation counts, index-aligned with :attr:`modules`."""
        return [mod.workload for mod in self.modules]

    def stage_vectors(self) -> np.ndarray:
        """Read-only ``(2, n)`` array: per-module workload, then input bytes.

        Row 0 holds :math:`c_j m_{j-1}` and row 1 :math:`m_{j-1}`, the two
        per-stage operands of the tensor and warm DP sweeps.  Built on first
        call and cached on the pipeline (which is immutable), so re-solving
        the same pipeline does not walk its modules again.
        """
        vectors = self._stage_vectors
        if vectors is None:
            vectors = np.array(
                [m.complexity * m.input_bytes for m in self.modules]
                + [m.input_bytes for m in self.modules],
                dtype=float).reshape(2, -1)
            vectors.flags.writeable = False
            object.__setattr__(self, "_stage_vectors", vectors)
        return vectors

    # ------------------------------------------------------------------ #
    # Grouping machinery
    # ------------------------------------------------------------------ #
    def group_workload(self, module_ids: Iterable[ModuleId]) -> float:
        """Total operations of a group of modules (the term :math:`\\sum_{j\\in g} c_j m_{j-1}`)."""
        total = 0.0
        for mid in module_ids:
            if not 0 <= mid < self.n_modules:
                raise SpecificationError(
                    f"module_id {mid} out of range 0..{self.n_modules - 1}")
            total += self.modules[mid].workload
        return total

    def group_output_bytes(self, module_ids: Sequence[ModuleId]) -> float:
        """Size of the message leaving a *contiguous* group (output of its last module)."""
        if not module_ids:
            raise SpecificationError("a module group may not be empty")
        return self.modules[max(module_ids)].output_bytes

    def contiguous_groupings(self, q: int) -> Iterator[Grouping]:
        """Yield every decomposition of the pipeline into ``q`` non-empty contiguous groups.

        There are :math:`\\binom{n-1}{q-1}` such decompositions.  Intended for
        the exhaustive optimality oracles on small instances; the dynamic
        programs never enumerate groupings explicitly.
        """
        n = self.n_modules
        if not 1 <= q <= n:
            raise SpecificationError(f"q must be in [1, {n}], got {q}")

        def rec(start: int, remaining: int) -> Iterator[List[List[int]]]:
            if remaining == 1:
                yield [list(range(start, n))]
                return
            # leave at least (remaining - 1) modules for the later groups
            for end in range(start + 1, n - remaining + 2):
                head = list(range(start, end))
                for tail in rec(end, remaining - 1):
                    yield [head] + tail

        yield from rec(0, q)

    def split_after(self, cut_points: Sequence[ModuleId]) -> Grouping:
        """Build a grouping from the module ids *after which* the pipeline is cut.

        ``split_after([1, 3])`` on a 6-module pipeline yields
        ``[[0, 1], [2, 3], [4, 5]]``.
        """
        cuts = sorted(set(int(c) for c in cut_points))
        for c in cuts:
            if not 0 <= c < self.n_modules - 1:
                raise SpecificationError(
                    f"cut point {c} out of range 0..{self.n_modules - 2}")
        groups: Grouping = []
        start = 0
        for c in cuts:
            groups.append(list(range(start, c + 1)))
            start = c + 1
        groups.append(list(range(start, self.n_modules)))
        return groups

    # ------------------------------------------------------------------ #
    # Constructors / transformers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_stage_specs(
        cls,
        source_bytes: float,
        stages: Sequence[Tuple[float, float]],
        *,
        name: Optional[str] = None,
        stage_names: Optional[Sequence[str]] = None,
    ) -> "Pipeline":
        """Build a pipeline from a compact stage specification.

        Parameters
        ----------
        source_bytes:
            Size of the raw dataset emitted by the data source :math:`M_1`.
        stages:
            One ``(complexity, output_bytes)`` pair per *computing* module
            :math:`M_2..M_n`; the input size of each stage is inferred from
            the previous stage's output (chaining).  The last pair's
            ``output_bytes`` is forced to ``0`` if non-zero values are given,
            because the terminal module transfers nothing.
        stage_names:
            Optional display names for the computing stages, same length as
            ``stages``.
        """
        if not stages:
            raise SpecificationError("at least one computing stage is required")
        if stage_names is not None and len(stage_names) != len(stages):
            raise SpecificationError(
                "stage_names must have the same length as stages")
        mods: List[ComputingModule] = [source_module(source_bytes)]
        incoming = source_bytes
        for idx, (complexity, out_bytes) in enumerate(stages):
            is_last = idx == len(stages) - 1
            mods.append(ComputingModule(
                module_id=idx + 1,
                complexity=complexity,
                input_bytes=incoming,
                output_bytes=0.0 if is_last else out_bytes,
                name=None if stage_names is None else stage_names[idx],
            ))
            incoming = out_bytes
        return cls(modules=tuple(mods), name=name)

    @classmethod
    def client_server(cls, data_bytes: float, sink_complexity: float, *,
                      name: str = "client/server") -> "Pipeline":
        """The degenerate two-module pipeline: a data source and an end user.

        The paper notes that "a computing pipeline with only two end modules
        reduces to a traditional client/server based computing paradigm".
        """
        return cls(
            modules=(
                source_module(data_bytes),
                sink_module(sink_complexity, data_bytes, module_id=1),
            ),
            name=name,
        )

    def renamed(self, name: str) -> "Pipeline":
        """Return a copy of the pipeline with a new display name."""
        return Pipeline(modules=self.modules, name=name, metadata=dict(self.metadata))

    def scaled(self, *, complexity: float = 1.0, data: float = 1.0) -> "Pipeline":
        """Return a copy with every module's complexity / data sizes scaled."""
        return Pipeline(
            modules=tuple(m.scaled(complexity=complexity, data=data) for m in self.modules),
            name=self.name,
            metadata=dict(self.metadata),
        )

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """Serialise to a plain (JSON-compatible) dictionary."""
        return {
            "name": self.name,
            "metadata": dict(self.metadata),
            "modules": [m.to_dict() for m in self.modules],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Pipeline":
        """Reconstruct a pipeline from :meth:`to_dict` output."""
        return cls(
            modules=tuple(ComputingModule.from_dict(m) for m in data["modules"]),
            name=data.get("name"),
            metadata=dict(data.get("metadata", {})),
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        label = self.name or "pipeline"
        return f"{label}[n={self.n_modules}, workload={self.total_workload():g}]"
