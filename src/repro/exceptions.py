"""Exception hierarchy for the :mod:`repro` package.

All library-specific errors derive from :class:`ReproError` so callers can
catch the whole family with a single ``except`` clause while still being able
to distinguish configuration problems (:class:`SpecificationError`),
infeasible mapping instances (:class:`InfeasibleMappingError`), and internal
algorithmic invariant violations (:class:`AlgorithmError`).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class SpecificationError(ReproError, ValueError):
    """An entity (module, node, link, pipeline, network) was mis-specified.

    Raised, for example, for a non-positive bandwidth, a negative data size,
    a pipeline with fewer than two modules, or a network whose adjacency
    matrix is not symmetric.
    """


class InfeasibleMappingError(ReproError):
    """No feasible mapping exists for the requested problem instance.

    The paper (Section 4.3) notes two situations in which this happens:

    * the shortest end-to-end path between the source and the destination is
      longer (in hops) than the pipeline, so a one-module-per-node mapping
      cannot even reach the destination, or
    * the pipeline is longer than the longest simple end-to-end path and node
      reuse is not allowed.
    """

    def __init__(self, message: str, *, source: int | None = None,
                 destination: int | None = None, n_modules: int | None = None):
        super().__init__(message)
        self.source = source
        self.destination = destination
        self.n_modules = n_modules


class CapacityError(ReproError):
    """A placement does not fit the cluster's remaining capacity.

    Raised by the placement ledger (:mod:`repro.placement.ledger`) when a
    commit would drive a node's compute budget or a link's bandwidth budget
    negative, and by the placers when no capacity-feasible mapping exists for
    a request on the residual cluster.  The failed commit never mutates the
    ledger, so the caller can catch this, record the rejection and continue
    packing the rest of the batch.
    """


class AlgorithmError(ReproError, RuntimeError):
    """An internal invariant of a mapping algorithm was violated.

    This indicates a bug in the library rather than a bad input; it is raised,
    for instance, when dynamic-programming back-tracking produces a path that
    does not respect adjacency in the transport network.
    """


class SimulationError(ReproError, RuntimeError):
    """The discrete-event simulator reached an inconsistent state."""


class MeasurementError(ReproError, ValueError):
    """A measurement/estimation routine received unusable observations."""
