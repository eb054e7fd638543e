"""NumPy array layer of the tensor batch engine.

The stacked-CSR formulation of the batched ELPC dynamic programs
(:mod:`repro.core.tensor`) reduces candidate costs per destination node
over a padded-slot layout of each dense view.  This module owns that
layout and the reduction:

* :class:`StagedView` — the per-view arrays the DP stages read every
  iteration, plus the precomputed padded-slot layout;
* :func:`stage_view` — builds one :class:`StagedView` per
  :class:`DenseNetworkView` and caches it for the view's lifetime;
* :func:`segment_min` — the padded-slot per-node minimum.

The engine computes in NumPy only.  ``backend=`` arguments, the
``--backend`` CLI flag and the ``REPRO_BACKEND`` environment variable still
exist so callers can name it; :func:`get_backend` accepts ``"numpy"`` (or
a :class:`NumpyBackend`) and raises
:class:`~repro.exceptions.BackendUnavailableError` for any other name.
"""

from __future__ import annotations

import os
import weakref
from dataclasses import dataclass
from typing import Dict, List, Union

import numpy as np

from ..exceptions import BackendUnavailableError, SpecificationError
from ..model.network import DenseNetworkView

__all__ = [
    "NumpyBackend",
    "StagedView",
    "stage_view",
    "segment_min",
    "get_backend",
    "available_backends",
    "BACKEND_ENV_VAR",
    "DEFAULT_BACKEND",
]

#: Environment variable that supplies the backend name when a tensor solve
#: is started without an explicit ``backend=`` (also the default of the CLI
#: ``--backend`` flag).
BACKEND_ENV_VAR = "REPRO_BACKEND"

#: The one backend the tensor engine runs on.
DEFAULT_BACKEND = "numpy"


@dataclass(frozen=True)
class StagedView:
    """The DP-stage arrays of one :class:`DenseNetworkView`.

    Produced (and cached per view) by :func:`stage_view`: the view's own
    CSR edge arrays and transport vectors, plus the padded-slot layout
    :func:`segment_min` reduces over.

    Attributes
    ----------
    k, n_directed_edges, max_deg:
        Node count, directed-edge count ``2|E|``, and the maximum in-degree
        (the padded-slot width; 0 for an edgeless network).
    power_ms:
        ``(k,)`` node processing powers scaled to the DP's ms units
        (``view.power * 1e3``).
    edge_u, edge_v:
        ``(2|E|,)`` directed-edge endpoint indices in CSR order.
    edge_bandwidth_bits_per_s, edge_link_delay:
        ``(2|E|,)`` per-edge transport attributes, aligned with ``edge_u``.
    rows:
        ``arange(k)`` — the same-node predecessor column.
    flat_slot:
        ``(2|E|,)`` scatter targets of each CSR edge inside the flattened
        ``(k * max_deg,)`` padded layout (slots ordered by ascending ``u``
        inside each node, so the first minimal slot is the lowest
        predecessor index).
    slot_to_u_flat:
        ``(k * max(max_deg, 1),)`` inverse map from padded slot to edge
        source index (0 in padding slots).
    row_base:
        ``(k,)`` offsets of each node's first slot in the flattened layout.
    """

    k: int
    n_directed_edges: int
    max_deg: int
    power_ms: np.ndarray
    edge_u: np.ndarray
    edge_v: np.ndarray
    edge_bandwidth_bits_per_s: np.ndarray
    edge_link_delay: np.ndarray
    rows: np.ndarray
    flat_slot: np.ndarray
    slot_to_u_flat: np.ndarray
    row_base: np.ndarray


_STAGED: Dict[int, StagedView] = {}


def stage_view(view: DenseNetworkView) -> StagedView:
    """The view's :class:`StagedView`, built on first use and cached.

    Later calls return the same object until the view is garbage-collected
    (networks cache their view until mutation, so one staging serves every
    solve over an unchanged topology).
    """
    key = id(view)
    staged = _STAGED.get(key)
    if staged is not None:
        return staged
    k = view.n_nodes
    E2 = view.n_directed_edges
    counts = np.diff(view.edge_indptr)
    max_deg = int(counts.max()) if E2 else 0
    slot_within = np.arange(E2) - np.repeat(view.edge_indptr[:-1], counts)
    flat_slot = (view.edge_v * max_deg + slot_within).astype(np.intp)
    slot_to_u = np.zeros(k * max(max_deg, 1), dtype=np.intp)
    slot_to_u[flat_slot] = view.edge_u
    staged = StagedView(
        k=k, n_directed_edges=E2, max_deg=max_deg,
        power_ms=view.power * 1e3,
        edge_u=view.edge_u,
        edge_v=view.edge_v,
        edge_bandwidth_bits_per_s=view.edge_bandwidth_bits_per_s,
        edge_link_delay=view.edge_link_delay,
        rows=np.arange(k),
        flat_slot=flat_slot,
        slot_to_u_flat=slot_to_u,
        row_base=(np.arange(k) * max_deg).astype(np.intp))
    _STAGED[key] = staged
    # Evict on view collection so solves over many throwaway networks do
    # not pin their layouts forever.
    weakref.finalize(view, _STAGED.pop, key, None)
    return staged


def segment_min(values: np.ndarray, staged: StagedView):
    """Per-destination-node minimum and lowest-``u`` argmin over edge values.

    ``values`` is ``(A, 2|E|)`` of candidate costs in the view's CSR edge
    order; returns ``(best, best_u)`` of shape ``(A, k)``.  ``best`` is
    ``inf`` (and ``best_u`` is 0) for nodes with no incoming edge or no
    finite candidate, exactly matching what ``np.argmin`` over an
    all-``inf`` column yields in the vectorized engine.

    Candidates scatter into an inf-padded ``(A, k, max_deg)`` tensor whose
    contiguous min/argmin over the last axis is faster than
    ``np.minimum.reduceat`` on the small per-node segments real topologies
    have, and the ascending-``u`` slot order preserves the lowest-predecessor
    tie-break for free.
    """
    A = values.shape[0]
    if staged.max_deg == 0:  # edgeless network: no cross-link candidates
        return (np.full((A, staged.k), np.inf),
                np.zeros((A, staged.k), dtype=np.int64))
    pad = np.full((A, staged.k * staged.max_deg), np.inf)
    pad[:, staged.flat_slot] = values
    pad3 = pad.reshape(A, staged.k, staged.max_deg)
    arg = np.argmin(pad3, axis=2)
    best = np.take_along_axis(pad3, arg[:, :, None], axis=2)[:, :, 0]
    best_u = np.take(staged.slot_to_u_flat, arg + staged.row_base[None, :])
    best_u = np.where(np.isfinite(best), best_u, 0)
    return best, best_u


class NumpyBackend:
    """The backend selector :func:`get_backend` resolves every name to.

    It carries only the ``name`` recorded in each mapping's
    ``extras["backend"]``; the computation lives in :func:`stage_view` and
    :func:`segment_min`.
    """

    name = DEFAULT_BACKEND


_NUMPY = NumpyBackend()

#: Anything the engine accepts as a backend selector.
BackendLike = Union[None, str, NumpyBackend]


def available_backends() -> List[str]:
    """Names of the backends the tensor engine can run on: ``["numpy"]``."""
    return [DEFAULT_BACKEND]


def get_backend(backend: BackendLike = None) -> NumpyBackend:
    """Validate a backend selector and return the :class:`NumpyBackend`.

    ``None`` resolves through the :data:`BACKEND_ENV_VAR` environment
    variable, falling back to :data:`DEFAULT_BACKEND`; a name is matched
    case-insensitively; a :class:`NumpyBackend` instance passes through.

    Raises
    ------
    BackendUnavailableError
        For any name other than ``"numpy"``.
    """
    if isinstance(backend, NumpyBackend):
        return backend
    if backend is None:
        backend = os.environ.get(BACKEND_ENV_VAR) or DEFAULT_BACKEND
    if not isinstance(backend, str):
        raise SpecificationError(
            f"backend must be a name or a NumpyBackend, got {backend!r}")
    if backend.lower() != DEFAULT_BACKEND:
        raise BackendUnavailableError(
            f"unknown backend {backend!r}: the tensor engine runs on NumPy "
            f"only (installed backends: {DEFAULT_BACKEND}); pass "
            f"{DEFAULT_BACKEND!r} via --backend / {BACKEND_ENV_VAR} or "
            f"backend=, or leave it unset",
            backend=backend.lower(), installed=available_backends())
    return _NUMPY
