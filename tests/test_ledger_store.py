"""Unit tests for the admission ledgers and the book that owns them.

:class:`ClusterState` keeps its budgets in its own NumPy arrays behind its
own lock (``TestLocalStore``).  Every admission ledger a service or a fleet
charges is owned by one :class:`repro.service.admission.AdmissionBook`
(``TestSharedStore``): commits by one holder (replica) are visible to the
next, decisions match an in-process ``ClusterState`` bit for bit, a
re-interned network rejoins its drained ledger, any number of networks is
admitted, and releasing a holder refunds exactly what it held.  A forked
child admits through its pipe and the reap refunds it.  Also the
concurrency fix: ``snapshot()``/``restore()`` hold the ledger lock for the
whole copy, proven by a threaded race test.
"""

from __future__ import annotations

import os
import threading

import numpy as np
import pytest

from repro.exceptions import CapacityError
from repro.generators import random_network, random_pipeline, random_request
from repro.model import TransportNetwork
from repro.placement import ClusterState
from repro.service.admission import AdmissionBook, AdmissionPipe

requires_fork = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="pipe-admission test needs fork")


def _network(seed=1, n_nodes=6, n_links=10):
    return random_network(n_nodes, n_links, seed=seed)


def _mapping(network, *, pipe_seed=2, req_seed=3, n_modules=3):
    import repro
    from repro.core import Objective

    pipeline = random_pipeline(n_modules=n_modules, seed=pipe_seed)
    request = random_request(network, seed=req_seed)
    return repro.solve("elpc", pipeline, network, request, Objective.MIN_DELAY)


@pytest.fixture
def book():
    return AdmissionBook()


def _admit(book, holder, network, demand, key="net0"):
    """One ask through the book; the verdict (``None`` = admitted)."""
    (verdict,) = book.admit(holder, [(key, demand)], {key: network})
    return verdict


def _one_fit_factor(network, mapping, fps=1.0):
    """A capacity factor whose binding budget fits 1.5 copies of a demand."""
    probe = ClusterState.from_network(network)
    demand = probe.demand_of(mapping, demand_fps=fps)
    ratios = [need / probe.node_capacity[probe.view.index_of[node]]
              for node, need in demand.nodes.items()]
    ratios += [need / probe.link_capacity[key]
               for key, need in demand.links.items()]
    return 1.5 * max(ratios)


# ---------------------------------------------------------------------- #
# The ledger's own budgets
# ---------------------------------------------------------------------- #
class TestLocalStore:
    def test_default_store_is_local(self):
        # The only store: the ledger's own arrays, owned by nothing else.
        cluster = ClusterState.from_network(_network())
        assert type(cluster.node_remaining) is np.ndarray
        assert cluster.node_remaining.base is None
        assert not hasattr(cluster, "store")

    def test_node_remaining_is_live_and_writable(self):
        cluster = ClusterState.from_network(_network())
        cluster.node_remaining[0] = 0.0
        assert cluster.node_remaining[0] == 0.0
        assert cluster.remaining_node(cluster.view.node_ids[0]) == 0.0

    def test_link_remaining_behaves_like_the_old_dict(self):
        cluster = ClusterState.from_network(_network())
        view = cluster.link_remaining
        assert set(view) == set(cluster.link_capacity)
        assert len(view) == len(cluster.link_capacity)
        assert dict(view) == {k: cluster.link_capacity[k] for k in view}
        assert view == {k: cluster.link_capacity[k] for k in view}
        key = next(iter(view))
        view[key] = 1.5
        assert cluster.link_remaining[key] == 1.5
        assert key in view

    def test_budget_queries_match_arrays(self):
        network = _network()
        cluster = ClusterState.from_network(network)
        mapping = _mapping(network)
        cluster.commit(cluster.demand_of(mapping, demand_fps=3.0))
        for node_id, remaining, slack in cluster.node_budgets():
            assert remaining == cluster.remaining_node(node_id)
            assert slack == cluster.node_slack(node_id)
        for key, remaining, slack in cluster.link_budgets():
            assert remaining == cluster.link_remaining[key]
            assert slack == cluster.link_slack(*key)
        vec = cluster.node_remaining_vector()
        assert np.array_equal(vec, np.asarray(cluster.node_remaining))
        vec[0] = -1.0  # a copy, not the live array
        assert cluster.node_remaining[0] != -1.0


# ---------------------------------------------------------------------- #
# rebase(): budgets follow the network's capacities, commitments stay
# ---------------------------------------------------------------------- #
class TestRebase:
    def test_each_budget_moves_by_its_capacity_change(self):
        network = _network()
        cluster = ClusterState.from_network(network)
        mapping = _mapping(network)
        cluster.commit(cluster.demand_of(mapping, demand_fps=3.0))
        before = cluster.node_remaining.copy()
        links_before = dict(cluster.link_remaining)
        node = mapping.path[0]
        index = cluster.view.index_of[node]
        power = network.processing_power(node)
        network.set_processing_power(node, power * 2.0)
        assert cluster.rebase() == []
        grown = power * 1e6  # the capacity it gained, ops/s
        assert cluster.node_remaining[index] == before[index] + grown
        others = np.arange(len(before)) != index
        assert np.array_equal(cluster.node_remaining[others], before[others])
        assert dict(cluster.link_remaining) == links_before
        assert len(cluster.committed) == 1
        cluster.validate()
        assert cluster.rebase() == []  # the view is unchanged: a no-op

    def test_shrunk_capacity_reports_what_is_overdrawn(self):
        network = _network()
        cluster = ClusterState.from_network(network)
        mapping = _mapping(network)
        demand = cluster.commit(cluster.demand_of(mapping, demand_fps=2.0))
        node, needed = next(iter(demand.nodes.items()))
        network.set_processing_power(node, needed / 4e6)
        (violation,) = [v for v in cluster.rebase() if v.kind == "node"]
        assert violation.where == node
        assert violation.needed == pytest.approx(needed)
        assert violation.remaining == pytest.approx(needed / 4 - needed)

    def test_dropping_a_link_in_use_refuses_to_rebase(self):
        network = _network()
        cluster = ClusterState.from_network(network)
        mapping = _mapping(network)
        demand = cluster.commit(cluster.demand_of(mapping))
        u, v = next(iter(demand.links))
        network.remove_link(u, v)
        with pytest.raises(CapacityError, match="no longer has"):
            cluster.rebase()


# ---------------------------------------------------------------------- #
# The admission book: one owner, many holders
# ---------------------------------------------------------------------- #
class TestSharedStore:
    def test_commits_visible_across_holders(self):
        network = _network()
        mapping = _mapping(network)
        book = AdmissionBook(_one_fit_factor(network, mapping))
        demand = ClusterState.demand_of(mapping)
        assert _admit(book, 0, network, demand) is None
        # Holder 1 charges the same budgets holder 0 drained.
        assert "exceeds remaining cluster capacity" in _admit(
            book, 1, network, ClusterState.demand_of(mapping))

    def test_bit_identical_with_local_store(self):
        network = _network()
        mapping = _mapping(network)
        factor = 4.0 * _one_fit_factor(network, mapping)
        book = AdmissionBook(factor)
        local = ClusterState.from_network(network,
                                          node_capacity_factor=factor,
                                          link_capacity_factor=factor)
        verdicts, expected = [], []
        for holder, fps in enumerate((5.0, 1.0, 0.25, 0.5, 2.0, 1.0)):
            verdicts.append(_admit(book, holder % 2, network,
                                   ClusterState.demand_of(mapping,
                                                          demand_fps=fps)))
            try:
                local.commit(local.demand_of(mapping, demand_fps=fps))
                expected.append(None)
            except CapacityError as exc:
                expected.append(str(exc))
        assert verdicts == expected
        assert any(v is None for v in verdicts)
        assert any(v is not None for v in verdicts)
        ledger = book._ledgers["net0"]
        assert np.array_equal(ledger.node_remaining, local.node_remaining)
        assert dict(ledger.link_remaining) == dict(local.link_remaining)

    def test_rejoining_a_slot_keeps_drained_budgets(self, book):
        network = _network()
        mapping = _mapping(network)
        _admit(book, 0, network, ClusterState.demand_of(mapping,
                                                        demand_fps=4.0))
        drained = book._ledgers["net0"].node_remaining_vector()
        # The same topology as a new object (a replica's interner evicted
        # and re-interned it) lands on the same ledger, drained budgets
        # intact.
        again = TransportNetwork.from_dict(network.to_dict())
        _admit(book, 1, again, ClusterState.demand_of(mapping))
        assert book.occupancy()["networks"] == 1.0
        expected = ClusterState.from_network(network)
        for fps in (4.0, 1.0):
            expected.commit(expected.demand_of(mapping, demand_fps=fps))
        assert np.array_equal(book._ledgers["net0"].node_remaining,
                              expected.node_remaining)
        assert not np.array_equal(drained, expected.node_remaining)

    def test_seventeenth_distinct_network_is_admitted(self, book):
        for seed in range(17):
            network = _network(seed=seed)
            mapping = _mapping(network)
            assert _admit(book, seed % 2, network,
                          ClusterState.demand_of(mapping),
                          key=f"net{seed}") is None
        assert book.occupancy()["networks"] == 17.0

    def test_validate_sees_fleet_wide_usage(self, book):
        network = _network()
        mapping = _mapping(network)
        _admit(book, 0, network, ClusterState.demand_of(mapping,
                                                        demand_fps=2.0))
        _admit(book, 1, network, ClusterState.demand_of(mapping,
                                                        demand_fps=3.0))
        # One ledger holds both holders' commitments, so validate()
        # reconciles budgets against everything the fleet admitted.
        ledger = book._ledgers["net0"]
        assert len(ledger.committed) == 2
        ledger.validate()

    def test_release_replica_refunds_and_is_idempotent(self, book):
        network = _network()
        mapping = _mapping(network)
        _admit(book, 0, network, ClusterState.demand_of(mapping))
        _admit(book, 1, network, ClusterState.demand_of(mapping,
                                                        demand_fps=3.0))
        _admit(book, 1, network, ClusterState.demand_of(mapping))
        assert book.release(1) == 2
        expected = ClusterState.from_network(network)
        expected.commit(expected.demand_of(mapping))
        ledger = book._ledgers["net0"]
        assert np.array_equal(ledger.node_remaining, expected.node_remaining)
        ledger.validate()
        assert book.release(1) == 0
        assert book.occupancy()["released_total"] == 1.0

    def test_occupancy_totals(self, book):
        network = _network()
        mapping = _mapping(network)
        demand = ClusterState.demand_of(mapping, demand_fps=5.0)
        _admit(book, 0, network, demand)
        occ = book.occupancy()
        ledger = book._ledgers["net0"]
        assert occ["networks"] == 1.0
        assert occ["node_capacity"] == pytest.approx(
            float(ledger.node_capacity.sum()))
        used = occ["node_capacity"] - occ["node_remaining"]
        assert used == pytest.approx(demand.total_node_ops)
        assert occ["released_total"] == 0.0

    def test_concurrent_holders_never_overdraw(self):
        """Holders admitting from several threads while others read
        occupancy and release: every ledger still validates and holds
        exactly what was admitted and not released."""
        import sys

        network = _network(seed=5, n_nodes=8, n_links=16)
        mapping = _mapping(network, pipe_seed=6, req_seed=7)
        book = AdmissionBook(40.0 * _one_fit_factor(network, mapping))
        admitted = [0] * 6
        failures: list = []

        def admit(holder):
            try:
                for _ in range(60):
                    verdict = _admit(book, holder, network,
                                     ClusterState.demand_of(mapping))
                    admitted[holder] += verdict is None
                    book.occupancy()
            except Exception as exc:  # pragma: no cover - the failure
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=admit, args=(holder,))
                       for holder in range(6)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
            released = book.release(0) + book.release(1)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert not failures
        ledger = book._ledgers["net0"]
        ledger.validate()
        assert released == admitted[0] + admitted[1]
        assert len(ledger.committed) == sum(admitted) - released
        assert 0 < sum(admitted) < 6 * 60  # the budgets really ran out

    @requires_fork
    def test_forked_child_attaches_by_name(self, book):
        """A forked child admits through its pipe; the reap refunds it."""
        import multiprocessing

        network = _network()
        mapping = _mapping(network)
        ours, theirs = multiprocessing.Pipe()
        pid = os.fork()
        if pid == 0:  # child: admit through the pipe, report, exit
            code = 1
            try:
                ours.close()
                pipe = AdmissionPipe(theirs)
                verdicts = pipe.admit(
                    1, [("net0", ClusterState.demand_of(mapping,
                                                        demand_fps=3.0))],
                    {"net0": network})
                code = 0 if verdicts == [None] else 2
            except BaseException:
                import traceback

                traceback.print_exc()
            finally:
                os._exit(code)
        theirs.close()
        # Serve the child's one message the way the supervisor does.
        ours.send((True, book.answer(1, ours.recv())))
        _pid, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        ours.close()
        # The child's charge is on the book, equal to one local commit of
        # the same demand on a ledger built from the payload it sent.
        expected = ClusterState.from_network(network)
        expected.commit(expected.demand_of(mapping, demand_fps=3.0))
        ledger = book._ledgers["net0"]
        assert np.array_equal(ledger.node_remaining, expected.node_remaining)
        # The supervisor reaps the "crashed" child's holdings.
        assert book.release(1) == 1
        pristine = ClusterState.from_network(network)
        assert np.array_equal(ledger.node_remaining,
                              pristine.node_remaining)


# ---------------------------------------------------------------------- #
# snapshot()/restore() under concurrent committers (the satellite fix)
# ---------------------------------------------------------------------- #
class TestSnapshotConcurrency:
    def test_snapshot_never_tears_under_concurrent_commits(self):
        network = _network(seed=5, n_nodes=8, n_links=16)
        cluster = ClusterState.from_network(network)
        mapping = _mapping(network, pipe_seed=6, req_seed=7)
        demand = cluster.demand_of(mapping, demand_fps=0.5)
        stop = threading.Event()
        failures: list = []

        def churn():
            while not stop.is_set():
                try:
                    held = cluster.commit(demand)
                    cluster.release(held)
                except CapacityError:
                    pass
                except Exception as exc:  # pragma: no cover - the failure
                    failures.append(exc)
                    return

        workers = [threading.Thread(target=churn) for _ in range(3)]
        for t in workers:
            t.start()
        try:
            for _ in range(300):
                snap = cluster.snapshot()
                # Internal consistency: the snapshot's budgets must equal
                # capacity minus exactly the demands in the snapshot's
                # committed tuple.  A snapshot torn between a commit's charge
                # and its committed-list append (or vice versa) breaks this.
                node_used = np.zeros_like(cluster.node_capacity)
                for d in snap.committed:
                    for node_id, needed in d.nodes.items():
                        node_used[cluster.view.index_of[node_id]] += needed
                expected = cluster.node_capacity - node_used
                assert np.allclose(snap.node_remaining, expected,
                                   rtol=1e-9, atol=1e-6), \
                    "snapshot tore between budgets and committed list"
        finally:
            stop.set()
            for t in workers:
                t.join()
        assert not failures

    def test_restore_is_atomic_against_committers(self):
        network = _network(seed=9)
        cluster = ClusterState.from_network(network)
        mapping = _mapping(network, pipe_seed=10, req_seed=11)
        demand = cluster.demand_of(mapping, demand_fps=0.25)
        snap = cluster.snapshot()
        stop = threading.Event()
        failures: list = []

        def churn():
            while not stop.is_set():
                try:
                    cluster.commit(demand)
                except CapacityError:
                    pass
                except Exception as exc:  # pragma: no cover
                    failures.append(exc)
                    return

        worker = threading.Thread(target=churn)
        worker.start()
        try:
            for _ in range(100):
                cluster.restore(snap)
                cluster.validate()
        finally:
            stop.set()
            worker.join()
        cluster.restore(snap)
        cluster.validate()
        assert not failures
