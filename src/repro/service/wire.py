"""Wire schema of the solve service (``repro-serve/2``).

The service speaks JSON built directly on the library's own serialization:
a solve request is :meth:`ProblemInstance.to_dict` output under an
``"instance"`` key plus the solver/objective selection fields, and a
solve response is one :class:`~repro.core.batch.BatchItemResult` rendered to
a plain dictionary (``mapping`` serialised via
:func:`repro.model.serialization.mapping_to_dict`).  Keeping the wire format
a thin shell over ``to_dict``/``from_dict`` means anything the library can
save or load can also be served, and the CLI/service/client never grow a
second, subtly different schema.

Network interning and references
--------------------------------
The tensor engine groups instances by network *object* identity
(:func:`repro.core.batch.solve_many` and the docs in ``core/batch.py``), but
every HTTP request deserialises its own copy of the network.  The
:class:`NetworkInterner` canonicalises structurally identical network
payloads onto one shared :class:`TransportNetwork` object (and therefore one
cached dense view), which is what lets concurrent same-network requests ride
a single tensor group flush.

Interning also assigns every network a stable *reference* (a digest of its
canonical JSON).  Responses carry it as ``network_ref``, and subsequent
requests may replace the full ``"network"`` payload with ``{"ref": ...}`` —
the natural protocol for the paper's service model, where the transport
network is long-lived infrastructure and only the pipelines change per
request.  For same-network request streams this removes the dominant
per-request cost (serialising and parsing the topology) from the hot path;
:class:`~repro.service.client.ServiceClient` uses it automatically after its
first full post of a network.

Schema versions
---------------
``repro-serve/2`` (current) adds an optional per-request ``priority`` (used
by the dispatcher's admission control to decide who gets cluster capacity
first) and an ``admission`` object on responses produced under admission
control (``{"admitted": bool, "reason": ...}``; capacity rejections are
ordinary ``ok: false`` responses carrying it).  ``repro-serve/1`` payloads —
no ``schema`` field, or ``schema: "repro-serve/1"`` — are accepted verbatim:
every ``/1`` field means the same thing, ``priority`` just defaults to 0.
Requests naming any *other* schema are rejected at parse time.

Responses additionally carry a ``replica_id`` (stamped by the HTTP server,
0 for a single-process deployment): under a pre-fork fleet (``repro serve
--replicas N``) it names the replica that served the request, which is what
lets the open-loop loadtest report attribute traffic per replica.  Interners
are per-replica — each replica re-interns a topology on first sight — but
references are *digests* of the canonical network payload, pure functions of
its content, so a ``network_ref`` learned from one replica names the same
topology on every other; a replica that has not interned it yet answers
"unknown network ref" and the client transparently re-posts the full
payload once (:meth:`ServiceClient.solve`).
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from ..core.batch import BatchItemResult
from ..core.mapping import Objective
from ..exceptions import SpecificationError
from ..model.network import TransportNetwork
from ..model.serialization import ProblemInstance, mapping_to_dict

__all__ = ["WIRE_SCHEMA", "WIRE_SCHEMA_V1", "SUPPORTED_SCHEMAS",
           "SolveRequest", "NetworkInterner",
           "apply_network_edits", "versioned_ref",
           "item_result_to_wire", "error_response", "occupancy_to_wire"]

#: Schema tag carried by every service response (and advertised by clients).
WIRE_SCHEMA = "repro-serve/2"

#: The previous schema, still accepted on requests verbatim.
WIRE_SCHEMA_V1 = "repro-serve/1"

#: Request schemas the server parses.
SUPPORTED_SCHEMAS = frozenset({WIRE_SCHEMA, WIRE_SCHEMA_V1})

#: ``solver_kwargs`` keys that name dispatch controls, not solver options.
#: ``solver`` and ``objective`` would collide with the kwargs the dispatcher
#: pins (``TypeError`` before any solve).  ``runner``, ``workers`` and
#: ``chunk_size`` were batch-pool controls; no solver takes them, so a client
#: still sending them gets a 400 at parse time rather than a per-item solver
#: error.  ``backend`` is reserved too: the wire accepts it only as the
#: top-level field that :meth:`SolveRequest.from_wire` checks.
_RESERVED_SOLVER_KWARGS = frozenset(
    {"solver", "objective", "backend", "runner", "workers", "chunk_size"})


class NetworkInterner:
    """Canonicalise identical network payloads onto one shared object.

    Keyed by the canonical (sorted, compact) JSON rendering of the network's
    ``to_dict`` payload; bounded LRU so a long-running service over an
    unbounded stream of distinct topologies cannot grow without limit.
    Interning is what turns per-request network copies back into the
    object-identity grouping the tensor engine batches on — and it also means
    repeat topologies reuse their cached dense view instead of rebuilding it
    per request.

    Thread-safe: keep-alive connection handlers (and any future pre-fork
    replica sharing an interner) may intern concurrently, and an unlocked
    ``OrderedDict`` LRU would corrupt under racing ``move_to_end`` /
    ``popitem`` calls — worse, two racing misses could double-insert and hand
    out *different* objects for one topology, silently splitting a tensor
    group.  All cache access therefore holds one lock; the interned network
    per digest is unique for the interner's lifetime (until evicted).
    """

    def __init__(self, max_entries: int = 256) -> None:
        if max_entries < 1:
            raise SpecificationError(
                f"max_entries must be >= 1, got {max_entries!r}")
        self.max_entries = max_entries
        #: ref digest -> interned network (insertion order = LRU order)
        self._cache: "OrderedDict[str, TransportNetwork]" = OrderedDict()
        #: ref digest -> the network's view epoch when it was interned.
        #: Building a network from a payload advances its epoch once per
        #: structural edit, so "has this network drifted since interning?"
        #: is ``view_epoch > base epoch``, not ``view_epoch > 0`` — the
        #: comparison behind epoch-suffixed references (:meth:`ref_for`).
        self._base_epochs: Dict[str, int] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._cache)

    @staticmethod
    def ref_of(network_payload: Mapping[str, Any]) -> str:
        """The stable reference digest of a network ``to_dict`` payload."""
        canonical = json.dumps(network_payload, sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    def intern(self, network_payload: Mapping[str, Any]) -> TransportNetwork:
        """The shared :class:`TransportNetwork` for this ``to_dict`` payload."""
        return self.intern_with_ref(network_payload)[0]

    def intern_with_ref(self, network_payload: Mapping[str, Any]
                        ) -> Tuple[TransportNetwork, str]:
        """Intern a full network payload; returns ``(network, ref)``."""
        ref = self.ref_of(network_payload)
        with self._lock:
            network = self._cache.get(ref)
            if network is not None:
                self.hits += 1
                self._cache.move_to_end(ref)
                return network, ref
            # Construction happens under the lock: slower for a cold miss,
            # but two racing misses can never double-insert one topology.
            self.misses += 1
            network = TransportNetwork.from_dict(dict(network_payload))
            self._cache[ref] = network
            self._base_epochs[ref] = network.view_epoch
            while len(self._cache) > self.max_entries:
                evicted, _network = self._cache.popitem(last=False)
                self._base_epochs.pop(evicted, None)
            return network, ref

    def by_ref(self, ref: str) -> Optional[TransportNetwork]:
        """The network previously interned under ``ref``, if still cached.

        Accepts *versioned* references (``digest@epoch``, see
        :func:`versioned_ref`): deltas patch the interned object in place, so
        every epoch of one topology resolves to the same network and a client
        holding a pre-delta digest keeps working across capacity updates.
        """
        base = ref.split("@", 1)[0]
        with self._lock:
            network = self._cache.get(base)
            if network is not None:
                self.hits += 1
                self._cache.move_to_end(base)
            return network

    def holds(self, ref: str, network: TransportNetwork) -> bool:
        """``True`` while ``network`` is the object interned under ``ref``.

        A pure identity check: unlike :meth:`by_ref` it counts no hit and
        leaves the LRU order alone.
        """
        base = ref.split("@", 1)[0]
        with self._lock:
            return self._cache.get(base) is network

    def networks(self) -> Tuple[TransportNetwork, ...]:
        """Snapshot of every currently interned network (stats/healthz)."""
        with self._lock:
            return tuple(self._cache.values())

    def ref_for(self, ref: str, network: TransportNetwork) -> str:
        """The reference to echo for ``network``: epoch-suffixed iff drifted.

        A network that has taken deltas since it was interned answers with
        ``digest@epoch``; an unpatched one keeps its bare digest, so clients
        only ever see version suffixes once capacities actually move.
        """
        base = ref.split("@", 1)[0]
        with self._lock:
            base_epoch = self._base_epochs.get(base, 0)
        return versioned_ref(base, network, base_epoch=base_epoch)

    def apply_delta(self, ref: str, edits: Any
                    ) -> Tuple[TransportNetwork, str, int]:
        """Apply scalar ``edits`` to the network interned under ``ref``.

        The interned *object* is mutated in place — its digest (and therefore
        every outstanding ``network_ref``) stays valid; only the view epoch
        advances.  Returns ``(network, versioned_ref, n_edits)`` where the
        versioned reference carries the post-delta epoch as a ``@epoch``
        suffix.  Raises :class:`SpecificationError` on an unknown reference or
        malformed edits; edits are validated against the topology before any
        is applied, so a rejected delta never leaves the network half-edited.
        """
        base = ref.split("@", 1)[0]
        with self._lock:
            network = self._cache.get(base)
            if network is not None:
                self._cache.move_to_end(base)
        if network is None:
            raise SpecificationError(
                f"unknown network ref {ref!r} (not posted yet, or evicted); "
                "POST the full network once via /solve and re-read "
                "'network_ref' from the response")
        applied = apply_network_edits(network, edits)
        return network, self.ref_for(base, network), applied


def versioned_ref(ref: Optional[str], network: TransportNetwork, *,
                  base_epoch: int = 0) -> Optional[str]:
    """``digest@epoch`` once a network has drifted, the bare digest before.

    ``base_epoch`` is the network's view epoch at interning time (building a
    topology advances the epoch structurally, so fresh networks do not start
    at zero).  The suffix makes capacity drift observable to clients — two
    responses naming different suffixes were solved against different
    capacities — without invalidating the digest:
    :meth:`NetworkInterner.by_ref` strips the suffix, so any version of the
    reference resolves to the same interned object.
    """
    if ref is None:
        return None
    epoch = network.view_epoch
    return f"{ref}@{epoch}" if epoch > base_epoch else ref


#: Edit kinds accepted by ``apply_network_edits`` / ``POST /delta``, mapped
#: to the scalar setter each drives and the operand fields it needs.
_EDIT_KINDS = {
    "power": ("set_processing_power", ("node",)),
    "bandwidth": ("set_bandwidth", ("u", "v")),
    "delay": ("set_link_delay", ("u", "v")),
}


def apply_network_edits(network: TransportNetwork, edits: Any) -> int:
    """Apply a list of scalar-edit payloads to a network; returns the count.

    Each edit is an object ``{"kind": "power", "node": ..., "value": ...}``
    or ``{"kind": "bandwidth"|"delay", "u": ..., "v": ..., "value": ...}``.
    All edits are validated (shape, numeric value, node/link existence)
    before the first setter runs, so a bad edit anywhere in the list leaves
    the network untouched.
    """
    if not isinstance(edits, (list, tuple)) or not edits:
        raise SpecificationError(
            "'edits' must be a non-empty array of edit objects "
            '({"kind": "power"|"bandwidth"|"delay", ...})')
    staged = []
    for position, edit in enumerate(edits):
        if not isinstance(edit, Mapping):
            raise SpecificationError(
                f"edit #{position} must be an object, got "
                f"{type(edit).__name__}")
        kind = edit.get("kind")
        if kind not in _EDIT_KINDS:
            raise SpecificationError(
                f"edit #{position} has unknown kind {kind!r}; expected one "
                f"of {sorted(_EDIT_KINDS)}")
        setter_name, id_fields = _EDIT_KINDS[kind]
        try:
            ids = tuple(int(edit[name]) for name in id_fields)
            value = float(edit["value"])
        except KeyError as exc:
            raise SpecificationError(
                f"edit #{position} ({kind}) is missing field {exc}") from None
        except (TypeError, ValueError) as exc:
            raise SpecificationError(
                f"edit #{position} ({kind}) has a non-numeric field: "
                f"{exc}") from None
        if kind == "power":
            if not network.has_node(ids[0]):
                raise SpecificationError(
                    f"edit #{position}: no node {ids[0]} in this network")
        elif not network.has_link(*ids):
            raise SpecificationError(
                f"edit #{position}: no link {ids[0]}->{ids[1]} in this "
                "network")
        staged.append((getattr(network, setter_name), ids, value))
    for setter, ids, value in staged:
        setter(*ids, value)
    return len(staged)


@dataclass(frozen=True)
class SolveRequest:
    """One parsed solve request.

    Attributes
    ----------
    instance:
        The problem to solve (already interned through the service's
        :class:`NetworkInterner` when parsed via :meth:`from_wire`).
    solver:
        Registry name of the algorithm (the service default is
        ``"elpc-tensor"`` so coalesced batches group).
    objective:
        Which objective to optimise.
    solver_kwargs:
        Extra keyword arguments forwarded to every solve of the flush group.
    network_ref:
        The interner reference of the instance's network (set when parsed
        against an interner); echoed to clients as ``network_ref`` so they
        can switch to reference-style requests.
    priority:
        Admission priority (``repro-serve/2``): larger values get cluster
        capacity first when the dispatcher runs admission control; ties break
        by arrival order.  Ignored (but still parsed) when admission control
        is off.
    """

    instance: ProblemInstance
    solver: str = "elpc-tensor"
    objective: Objective = Objective.MIN_DELAY
    solver_kwargs: Dict[str, Any] = field(default_factory=dict)
    network_ref: Optional[str] = None
    priority: float = 0.0

    @classmethod
    def from_wire(cls, payload: Mapping[str, Any], *,
                  interner: Optional[NetworkInterner] = None,
                  default_solver: str = "elpc-tensor") -> "SolveRequest":
        """Parse a request payload; raises :class:`SpecificationError` on junk.

        A ``"backend"`` field is accepted only as ``"numpy"`` (any case), the
        one array library the engines run on, and is not kept.
        """
        if not isinstance(payload, Mapping):
            raise SpecificationError(
                f"solve request must be a JSON object, got {type(payload).__name__}")
        schema = payload.get("schema")
        if schema is not None and schema not in SUPPORTED_SCHEMAS:
            raise SpecificationError(
                f"unsupported wire schema {schema!r}; this server speaks "
                f"{sorted(SUPPORTED_SCHEMAS)}")
        instance_payload = payload.get("instance")
        if not isinstance(instance_payload, Mapping):
            raise SpecificationError(
                "solve request needs an 'instance' object "
                "(ProblemInstance.to_dict output)")
        network_ref: Optional[str] = None
        try:
            network_payload = instance_payload.get("network")
            if isinstance(network_payload, Mapping) and "ref" in network_payload:
                if interner is None:
                    raise SpecificationError(
                        "network references need a service-side interner; "
                        "send the full 'network' payload")
                network_ref = str(network_payload["ref"])
                network = interner.by_ref(network_ref)
                if network is None:
                    raise SpecificationError(
                        f"unknown network ref {network_ref!r} (not posted "
                        "yet, or evicted); POST the full network once and "
                        "re-read 'network_ref' from the response")
                instance = ProblemInstance(
                    pipeline=_pipeline_from(instance_payload),
                    network=network,
                    request=_request_from(instance_payload),
                    name=instance_payload.get("name"))
            elif interner is not None:
                network, network_ref = interner.intern_with_ref(network_payload)
                instance = ProblemInstance(
                    pipeline=_pipeline_from(instance_payload),
                    network=network,
                    request=_request_from(instance_payload),
                    name=instance_payload.get("name"))
            else:
                instance = ProblemInstance.from_dict(dict(instance_payload))
        except SpecificationError:
            raise
        except Exception as exc:
            raise SpecificationError(f"malformed instance payload: {exc}") from exc
        solver = payload.get("solver") or default_solver
        if not isinstance(solver, str):
            raise SpecificationError(
                f"'solver' must be a registry name string, got {solver!r}")
        objective = _objective_from(payload.get("objective"))
        backend = payload.get("backend")
        if backend is not None and (not isinstance(backend, str)
                                    or backend.lower() != "numpy"):
            raise SpecificationError(
                f"'backend' must be 'numpy' (the engines run on NumPy only) "
                f"or absent, got {backend!r}")
        solver_kwargs = payload.get("solver_kwargs") or {}
        if not isinstance(solver_kwargs, Mapping):
            raise SpecificationError(
                f"'solver_kwargs' must be an object, got {solver_kwargs!r}")
        reserved = _RESERVED_SOLVER_KWARGS.intersection(solver_kwargs)
        if reserved:
            raise SpecificationError(
                f"solver_kwargs may not override dispatch controls "
                f"{sorted(reserved)}; use the top-level request fields "
                "(solver/objective)")
        priority = payload.get("priority", 0.0)
        if not isinstance(priority, (int, float)) or isinstance(priority, bool):
            raise SpecificationError(
                f"'priority' must be a number, got {priority!r}")
        return cls(instance=instance, solver=solver, objective=objective,
                   solver_kwargs=dict(solver_kwargs),
                   network_ref=network_ref, priority=float(priority))

    def to_wire(self) -> Dict[str, Any]:
        """Render this request as a JSON-compatible payload (``repro-serve/2``)."""
        out: Dict[str, Any] = {
            "schema": WIRE_SCHEMA,
            "instance": self.instance.to_dict(),
            "solver": self.solver,
            "objective": self.objective.value,
        }
        if self.solver_kwargs:
            out["solver_kwargs"] = dict(self.solver_kwargs)
        if self.priority:
            out["priority"] = self.priority
        return out

    def dispatch_key(self) -> tuple:
        """Requests with equal keys may be coalesced into one ``solve_many``.

        Solver, objective and solver kwargs must all match — the
        batch API applies them batch-wide, so mixing them inside one call
        would change results.
        """
        return (self.solver.lower(), self.objective,
                json.dumps(self.solver_kwargs, sort_keys=True, default=repr))


def _pipeline_from(instance_payload: Mapping[str, Any]):
    from ..model.pipeline import Pipeline

    return Pipeline.from_dict(instance_payload["pipeline"])


def _request_from(instance_payload: Mapping[str, Any]):
    from ..model.network import EndToEndRequest

    request = instance_payload["request"]
    return EndToEndRequest(source=int(request["source"]),
                           destination=int(request["destination"]))


def _objective_from(value: Any) -> Objective:
    if value is None:
        return Objective.MIN_DELAY
    try:
        return Objective(value)
    except ValueError:
        valid = sorted(o.value for o in Objective)
        raise SpecificationError(
            f"unknown objective {value!r}; expected one of {valid}") from None


def item_result_to_wire(item: BatchItemResult, *, solver: str,
                        objective: Objective,
                        network_ref: Optional[str] = None,
                        admission: Optional[Dict[str, Any]] = None
                        ) -> Dict[str, Any]:
    """Render one :class:`BatchItemResult` as a service response payload.

    The response mirrors the batch API's per-item error policy: a failed
    solve is a normal payload with ``ok: false`` and the recorded ``error``
    (plus ``traceback`` for unexpected exceptions) — never a dropped
    connection or a non-200 status.  ``network_ref`` tells the client the
    digest under which the instance's network is interned, enabling
    reference-style follow-up requests.  ``admission`` (``repro-serve/2``) is
    attached when the dispatcher ran admission control on this response.
    """
    payload: Dict[str, Any] = {
        "schema": WIRE_SCHEMA,
        "ok": item.ok,
        "name": item.name,
        "solver": solver,
        "objective": objective.value,
        "error": item.error,
        "runtime_s": item.runtime_s,
        "group_id": item.group_id,
        "group_size": item.group_size,
        "group_wall_s": item.group_wall_s,
        "network_ref": network_ref,
        "mapping": mapping_to_dict(item.mapping) if item.mapping is not None else None,
    }
    if item.traceback is not None:
        payload["traceback"] = item.traceback
    if admission is not None:
        payload["admission"] = dict(admission)
    return payload


def error_response(message: str, *, solver: Optional[str] = None,
                   objective: Optional[Objective] = None,
                   admission: Optional[Dict[str, Any]] = None
                   ) -> Dict[str, Any]:
    """An ``ok: false`` response for failures outside any solve (bad request,
    dispatch error, admission rejection) — same shape as a failed item so
    clients parse one format."""
    payload: Dict[str, Any] = {
        "schema": WIRE_SCHEMA,
        "ok": False,
        "name": None,
        "solver": solver,
        "objective": objective.value if objective is not None else None,
        "error": message,
        "runtime_s": 0.0,
        "group_id": None,
        "group_size": 0,
        "group_wall_s": None,
        "mapping": None,
    }
    if admission is not None:
        payload["admission"] = dict(admission)
    return payload


def occupancy_to_wire(raw: Mapping[str, float]) -> Dict[str, Any]:
    """The healthz ``admission_occupancy`` block from raw ledger sums.

    ``raw`` carries resource-unit totals over every admission ledger —
    ``networks``, ``node_capacity`` / ``node_remaining`` (ops/s),
    ``link_capacity`` / ``link_remaining`` (bits/s) and ``released_total``
    (crash-release reaps) — from
    :meth:`repro.service.admission.AdmissionBook.occupancy`, the one book
    of a single process or of a whole fleet.
    The wire block reports *fractions* so operators read occupancy without
    knowing the cluster's absolute scale: ``node_residual_fraction`` /
    ``link_residual_fraction`` (remaining ÷ capacity, 1.0 for an idle or
    empty ledger) and the complementary ``node_occupancy_fraction`` /
    ``link_occupancy_fraction``; a healthy fleet never shows occupancy
    above 1.0 (one owner of the budgets makes overdraw structurally
    impossible).
    """
    node_cap = float(raw.get("node_capacity", 0.0))
    link_cap = float(raw.get("link_capacity", 0.0))
    node_res = (float(raw.get("node_remaining", 0.0)) / node_cap
                if node_cap > 0 else 1.0)
    link_res = (float(raw.get("link_remaining", 0.0)) / link_cap
                if link_cap > 0 else 1.0)
    return {
        "networks": int(raw.get("networks", 0.0)),
        "node_residual_fraction": node_res,
        "link_residual_fraction": link_res,
        "node_occupancy_fraction": 1.0 - node_res,
        "link_occupancy_fraction": 1.0 - link_res,
        "released_total": int(raw.get("released_total", 0.0)),
    }
