"""The one owner of a service's admission ledgers.

:class:`AdmissionBook` holds every capacity ledger admission control
charges — one plain :class:`~repro.placement.ClusterState` per network,
keyed by the network's *base* ref (the digest without any ``@epoch``
suffix), so a network the interner evicted and re-interned, or a client
naming a later epoch, rejoins the ledger its earlier admissions drained.
Ref-less requests (direct library use) are keyed ``id:<object id>``; those
exist only in-process.  The book also records which *holder* (replica id)
committed each demand, so :meth:`AdmissionBook.release` can hand one
holder's reservations back in one pass.

A single-process service calls its book directly.  A pre-fork fleet has one
book, in the supervisor: each replica holds an :class:`AdmissionPipe` (the
replica end of one ``multiprocessing.Pipe``) with the same ``admit`` /
``rebase`` / ``occupancy`` calls, and the supervisor answers every message
from its reap loop (:meth:`AdmissionBook.answer`).  Nothing is shared
between processes, so a replica killed at any instant leaves nothing held:
the reap closes its pipe — dropping any message still buffered — and then
releases its holdings.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..exceptions import CapacityError, ReproError, SpecificationError
from ..model.network import TransportNetwork
from ..placement import CapacityViolation, ClusterState, PlacementDemand

__all__ = ["AdmissionBook", "AdmissionPipe"]

#: One admission ask: the ledger key and the demand to commit against it.
Ask = Tuple[str, PlacementDemand]


class AdmissionBook:
    """Every admission ledger of one service or fleet, and who holds what.

    ``capacity_factor`` scales node and link budgets of every ledger the book
    builds (:meth:`ClusterState.from_network`).  All methods take one lock,
    so a service's event loop (admissions, health probes) and its flush
    thread (rebases on a delta) can share the book.
    """

    kind = "local"

    def __init__(self, capacity_factor: float = 1.0) -> None:
        self.capacity_factor = float(capacity_factor)
        self._ledgers: Dict[str, ClusterState] = {}
        self._held: Dict[int, List[Tuple[ClusterState, PlacementDemand]]] = {}
        #: Holder releases that refunded at least one demand.
        self.released_total = 0
        self._lock = threading.Lock()

    def admit(self, holder: int, asks: Sequence[Ask],
              networks: Mapping[str, TransportNetwork]
              ) -> List[Optional[str]]:
        """Commit ``asks`` in order; one verdict per ask.

        A verdict is ``None`` when the demand was committed (and is now held
        by ``holder``) or the :class:`~repro.exceptions.CapacityError` text
        when it did not fit.  ``networks`` supplies the network of any key
        the book has no ledger for yet; keys it already knows ignore it.
        """
        verdicts: List[Optional[str]] = []
        with self._lock:
            held = self._held.setdefault(holder, [])
            for key, demand in asks:
                ledger = self._ledgers.get(key)
                if ledger is None:
                    ledger = ClusterState.from_network(
                        networks[key],
                        node_capacity_factor=self.capacity_factor,
                        link_capacity_factor=self.capacity_factor)
                    self._ledgers[key] = ledger
                try:
                    ledger.commit(demand)
                except CapacityError as exc:
                    verdicts.append(str(exc))
                    continue
                held.append((ledger, demand))
                verdicts.append(None)
        return verdicts

    def rebase(self, key: str, network: TransportNetwork
               ) -> Tuple[bool, List[CapacityViolation]]:
        """Re-derive ``key``'s budgets from ``network`` after a delta.

        The ledger follows ``network`` from now on and moves each budget by
        its capacity change (:meth:`ClusterState.rebase`).
        Returns ``(rebased, violations)``; ``(False, [])`` when the book
        has no ledger for ``key``.
        """
        with self._lock:
            ledger = self._ledgers.get(key)
            if ledger is None:
                return False, []
            ledger.network = network
            return True, ledger.rebase()

    def release(self, holder: int) -> int:
        """Refund every demand ``holder`` committed; returns how many.

        One :meth:`ClusterState.release_many` per ledger, so a holder's
        whole book goes back in linear time.  A second call finds nothing
        held and refunds nothing.
        """
        with self._lock:
            held = self._held.pop(holder, [])
            by_ledger: Dict[int, Tuple[ClusterState, List[PlacementDemand]]] = {}
            for ledger, demand in held:
                by_ledger.setdefault(id(ledger), (ledger, []))[1].append(demand)
            for ledger, demands in by_ledger.values():
                ledger.release_many(demands)
            if held:
                self.released_total += 1
        return len(held)

    def occupancy(self) -> Dict[str, float]:
        """Raw sums behind healthz ``admission_occupancy``.

        Keys: ``networks`` (ledgers held), ``node_capacity`` /
        ``node_remaining`` (ops/s) and ``link_capacity`` / ``link_remaining``
        (bits/s) summed over ledgers, and ``released_total``
        (:func:`repro.service.wire.occupancy_to_wire` turns them into
        fractions).
        """
        totals = {"networks": 0.0, "node_capacity": 0.0,
                  "node_remaining": 0.0, "link_capacity": 0.0,
                  "link_remaining": 0.0}
        with self._lock:
            for ledger in self._ledgers.values():
                totals["networks"] += 1.0
                totals["node_capacity"] += float(ledger.node_capacity.sum())
                totals["node_remaining"] += float(ledger.node_remaining.sum())
                totals["link_capacity"] += float(
                    sum(ledger.link_capacity.values()))
                totals["link_remaining"] += float(
                    sum(ledger.link_remaining.values()))
            totals["released_total"] = float(self.released_total)
        return totals

    def answer(self, holder: int, message: Tuple[Any, ...]) -> Any:
        """Serve one :class:`AdmissionPipe` message from replica ``holder``.

        The supervisor calls this for every message it reads; the holder is
        the replica whose pipe the message arrived on.  Network payloads are
        decoded only for keys the book does not know yet.
        """
        kind = message[0]
        if kind == "admit":
            _kind, asks, payloads = message
            networks = {key: TransportNetwork.from_dict(payload)
                        for key, payload in payloads.items()
                        if key not in self._ledgers}
            return self.admit(holder, asks, networks)
        if kind == "rebase":
            _kind, key, payload = message
            if key not in self._ledgers:
                return False, []
            return self.rebase(key, TransportNetwork.from_dict(payload))
        if kind == "occupancy":
            return self.occupancy()
        raise SpecificationError(f"unknown admission message {kind!r}")


class AdmissionPipe:
    """A fleet replica's handle on the supervisor's :class:`AdmissionBook`.

    Same ``admit`` / ``rebase`` / ``occupancy`` calls as the book, each one
    request/reply round trip over ``conn``.  A network payload travels only
    the first time this replica names its key (later asks on that key send
    the demands alone); the holder is implied by the pipe, so the ``holder``
    argument is ignored.  Calls are serialised by a lock: the flush thread
    rebases on a delta while the event loop admits and reads occupancy.
    """

    kind = "shared"

    def __init__(self, conn) -> None:
        self._conn = conn
        self._lock = threading.Lock()
        self._named: set = set()

    def _call(self, *message: Any) -> Any:
        with self._lock:
            self._conn.send(message)
            ok, value = self._conn.recv()
        if not ok:
            raise ReproError(f"admission owner refused the request: {value}")
        return value

    def admit(self, holder: int, asks: Sequence[Ask],
              networks: Mapping[str, TransportNetwork]
              ) -> List[Optional[str]]:
        fresh = {key for key, _demand in asks} - self._named
        payloads = {key: networks[key].to_dict() for key in fresh}
        verdicts = self._call("admit", asks, payloads)
        self._named.update(payloads)
        return verdicts

    def rebase(self, key: str, network: TransportNetwork
               ) -> Tuple[bool, List[CapacityViolation]]:
        return self._call("rebase", key, network.to_dict())

    def occupancy(self) -> Dict[str, float]:
        return self._call("occupancy")
