"""Integration tests for the micro-batching solve service (repro.service).

Covers the PR's service acceptance surface: wire-schema round-trips, network
interning, concurrent clients coalescing into one tensor group flush (shared
``group_id``), per-request error isolation, result identity with direct
``solve_many``, the wire ``backend`` field check (400 unless ``numpy``),
and graceful shutdown draining the queue.
"""

from __future__ import annotations

import asyncio
import json
import threading

import pytest

from repro.core import Objective, solve_many
from repro.exceptions import SpecificationError
from repro.generators import (
    make_case,
    PAPER_CASE_SPECS,
    random_network,
    random_pipeline,
    random_request,
)
from repro.model import ProblemInstance
from repro.service import (
    BackgroundServer,
    NetworkInterner,
    ServiceConfig,
    ServiceClient,
    ServiceUnavailableError,
    SolveRequest,
    SolveService,
    WIRE_SCHEMA,
)


def _instances(count, *, network_seed=3, n_nodes=12, n_links=30, n_modules=6):
    """``count`` pipelines over one shared network (the coalescing shape)."""
    network = random_network(n_nodes, n_links, seed=network_seed)
    return [
        ProblemInstance(
            pipeline=random_pipeline(n_modules, seed=100 + i),
            network=network,
            request=random_request(network, seed=200 + i, min_hop_distance=2),
            name=f"svc-{i}")
        for i in range(count)
    ]


def _post_raw(conn, payload):
    """POST ``payload`` to ``/solve`` on an open ``HTTPConnection``;
    returns ``(status, parsed body)``."""
    conn.request("POST", "/solve", body=json.dumps(payload).encode(),
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, json.loads(response.read().decode())


def _post_all(client, instances, **kwargs):
    """POST every instance from its own thread; responses in input order."""
    results = [None] * len(instances)

    def post(i):
        results[i] = client.solve(instances[i], **kwargs)

    threads = [threading.Thread(target=post, args=(i,))
               for i in range(len(instances))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results


class TestWireSchema:
    def test_request_roundtrip(self):
        instance = make_case(PAPER_CASE_SPECS[0])
        request = SolveRequest(instance=instance, solver="elpc",
                               objective=Objective.MAX_FRAME_RATE,
                               solver_kwargs={"include_link_delay": False})
        payload = json.loads(json.dumps(request.to_wire()))  # full JSON trip
        again = SolveRequest.from_wire(payload)
        assert again.solver == "elpc"
        assert again.objective is Objective.MAX_FRAME_RATE
        assert again.solver_kwargs == {"include_link_delay": False}
        assert again.instance.name == instance.name
        assert again.instance.size_signature == instance.size_signature

    def test_defaults_applied(self):
        instance = make_case(PAPER_CASE_SPECS[0])
        request = SolveRequest.from_wire({"instance": instance.to_dict()})
        assert request.solver == "elpc-tensor"
        assert request.objective is Objective.MIN_DELAY

    @pytest.mark.parametrize("payload", [
        [],
        {},
        {"instance": 7},
        {"instance": {"pipeline": {}}},
    ])
    def test_malformed_payloads_rejected(self, payload):
        with pytest.raises(SpecificationError):
            SolveRequest.from_wire(payload)

    def test_unknown_objective_rejected(self):
        instance = make_case(PAPER_CASE_SPECS[0])
        with pytest.raises(SpecificationError, match="unknown objective"):
            SolveRequest.from_wire({"instance": instance.to_dict(),
                                    "objective": "fastest"})

    def test_interner_shares_identical_networks(self):
        interner = NetworkInterner()
        a, b = _instances(2)
        net_a = interner.intern(a.network.to_dict())
        net_b = interner.intern(b.network.to_dict())
        assert net_a is net_b
        assert interner.hits == 1 and interner.misses == 1
        other = random_network(8, 16, seed=99)
        assert interner.intern(other.to_dict()) is not net_a
        assert len(interner) == 2

    def test_interner_lru_bound(self):
        interner = NetworkInterner(max_entries=2)
        payloads = [random_network(6, 10, seed=s).to_dict() for s in range(4)]
        for payload in payloads:
            interner.intern(payload)
        assert len(interner) == 2


class TestCoalescing:
    def test_concurrent_clients_share_one_tensor_group(self):
        instances = _instances(8)
        config = ServiceConfig(max_batch=8, max_wait_ms=5000.0)
        with BackgroundServer(config) as server:
            responses = _post_all(server.client(), instances)
        group_ids = {r["group_id"] for r in responses}
        assert all(r["ok"] for r in responses)
        assert len(group_ids) == 1, "all 8 requests must ride one flush group"
        assert all(r["group_size"] == 8 for r in responses)
        assert all(r["schema"] == WIRE_SCHEMA for r in responses)

    def test_responses_identical_to_direct_solve_many(self):
        instances = _instances(6)
        direct = solve_many(instances, solver="elpc-tensor",
                            objective=Objective.MIN_DELAY)
        config = ServiceConfig(max_batch=6, max_wait_ms=5000.0)
        with BackgroundServer(config) as server:
            responses = _post_all(server.client(), instances)
        for item, response in zip(direct.items, responses):
            assert response["ok"]
            # bit-identical: JSON floats round-trip repr-exactly
            assert response["mapping"]["delay_ms"] == item.mapping.delay_ms
            assert response["mapping"]["groups"] == [list(g) for g
                                                    in item.mapping.groups]
            assert response["mapping"]["path"] == list(item.mapping.path)

    def test_sequential_requests_without_coalescing(self):
        instances = _instances(3)
        config = ServiceConfig(max_batch=1, max_wait_ms=0.0)
        with BackgroundServer(config) as server:
            client = server.client()
            responses = [client.solve(inst) for inst in instances]
            status = client.healthz()
        assert all(r["ok"] and r["group_size"] == 1 for r in responses)
        assert status["flushes_total"] == 3
        assert status["coalesced_flushes_total"] == 0

    def test_mixed_dispatch_keys_partition_one_flush(self):
        """Different solver selections inside one flush must not contaminate
        each other's solve_many call."""
        instances = _instances(4)
        config = ServiceConfig(max_batch=4, max_wait_ms=5000.0)
        with BackgroundServer(config) as server:
            client = server.client()
            results = [None] * 4

            def post(i):
                solver = "elpc-tensor" if i % 2 == 0 else "elpc"
                results[i] = client.solve(instances[i], solver=solver)

            threads = [threading.Thread(target=post, args=(i,))
                       for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert all(r["ok"] for r in results)
        assert {r["solver"] for r in results} == {"elpc-tensor", "elpc"}
        tensor_groups = {r["group_id"] for r in results
                        if r["solver"] == "elpc-tensor"}
        assert len(tensor_groups) == 1  # the tensor pair still grouped


class TestErrorIsolation:
    def test_one_bad_request_does_not_poison_the_flush(self):
        instances = _instances(4)
        # an infeasible instance: request endpoints farther apart than the
        # pipeline can reach is not guaranteed here, so use a bogus solver
        # kwarg on one request instead — recorded per item by solve_many.
        config = ServiceConfig(max_batch=4, max_wait_ms=5000.0)
        with BackgroundServer(config) as server:
            client = server.client()
            results = [None] * 4

            def post(i):
                if i == 2:
                    results[i] = client.solve(instances[i],
                                              no_such_kwarg=True)
                else:
                    results[i] = client.solve(instances[i])

            threads = [threading.Thread(target=post, args=(i,))
                       for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert [r["ok"] for r in results] == [True, True, False, True]
        assert results[2]["error"]
        assert results[2]["mapping"] is None

    @pytest.mark.parametrize("key", ["backend", "runner", "workers",
                                     "solver", "objective", "chunk_size"])
    def test_reserved_solver_kwargs_rejected_not_fatal(self, key):
        """Dispatch-control keys smuggled through solver_kwargs must be a
        per-request 400, not a TypeError that kills the flusher (or a
        policy bypass like workers=32)."""
        instances = _instances(2)
        with BackgroundServer(ServiceConfig(max_wait_ms=0.0)) as server:
            client = server.client()
            bad = client.request("POST", "/solve", {
                "instance": instances[0].to_dict(),
                "solver_kwargs": {key: "anything"},
            })
            assert bad["ok"] is False
            assert "dispatch controls" in bad["error"]
            # the service must still be alive and solving
            good = client.solve(instances[1])
        assert good["ok"]

    def test_flusher_survives_internal_dispatch_errors(self):
        """Even an exception escaping _dispatch answers the batch and keeps
        the flusher alive (defense in depth for the wedged-service bug)."""

        async def scenario():
            service = SolveService(ServiceConfig(max_wait_ms=0.0))
            await service.start()
            original = service._dispatch_partition
            calls = {"n": 0}

            async def exploding(entries):
                calls["n"] += 1
                if calls["n"] == 1:
                    raise RuntimeError("synthetic dispatcher bug")
                await original(entries)

            service._dispatch_partition = exploding
            first = await service.submit(SolveRequest(instance=_instances(1)[0]))
            second = await service.submit(SolveRequest(instance=_instances(1)[0]))
            await service.close()
            return first, second

        first, second = asyncio.run(scenario())
        assert first["ok"] is False
        assert "internal dispatch error" in first["error"]
        assert second["ok"] is True

    def test_unknown_solver_answered_not_dropped(self):
        # "elpc-vec" is the name of a deleted engine: no alias serves it.
        instances = _instances(1)
        with BackgroundServer(ServiceConfig(max_wait_ms=0.0)) as server:
            with server.client() as client:
                for name in ("no-such-engine", "elpc-vec"):
                    response = client.solve(instances[0], solver=name)
                    assert response["ok"] is False
                    assert name in response["error"]
                    assert "known solvers" in response["error"]
                    assert "elpc-tensor" in response["error"]
                assert client.solve(instances[0])["ok"]
                status = client.healthz()
        assert status["connections_total"] == 1  # keep-alive socket reused

    def test_malformed_json_gets_400_payload(self):
        from http.client import HTTPConnection

        with BackgroundServer(ServiceConfig(max_wait_ms=0.0)) as server:
            conn = HTTPConnection(server.host, server.port, timeout=30)
            conn.request("POST", "/solve", body=b"{not json",
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            payload = json.loads(response.read().decode())
            conn.close()
        assert response.status == 400
        assert payload["ok"] is False
        assert "invalid JSON" in payload["error"]

    def test_unknown_path_404(self):
        with BackgroundServer(ServiceConfig(max_wait_ms=0.0)) as server:
            payload = server.client().request("GET", "/nope")
        assert payload["ok"] is False and "unknown path" in payload["error"]

    def test_per_request_backend_failure_is_recorded(self):
        """A wire ``backend`` other than numpy is a 400 at parse time: never
        queued, and the keep-alive connection keeps serving."""
        from http.client import HTTPConnection

        instance = _instances(1)[0]
        with BackgroundServer(ServiceConfig(max_wait_ms=0.0)) as server:
            conn = HTTPConnection(server.host, server.port, timeout=30)
            status, bad = _post_raw(conn, {"instance": instance.to_dict(),
                                           "backend": "cupy"})
            sock = conn.sock  # http.client drops it if the server closes
            queued = server.client().healthz()["requests_total"]
            good_status, good = _post_raw(conn,
                                          {"instance": instance.to_dict()})
            assert sock is not None and conn.sock is sock
            conn.close()
        assert status == 400
        assert bad["ok"] is False
        assert "numpy" in bad["error"] and "cupy" in bad["error"]
        assert queued == 0
        assert good_status == 200 and good["ok"]

    def test_numpy_backend_field_in_any_case_is_accepted(self):
        instance = _instances(1)[0]
        with BackgroundServer(ServiceConfig(max_wait_ms=0.0)) as server:
            client = server.client()
            named = client.request("POST", "/solve", {
                "instance": instance.to_dict(), "backend": "NumPy"})
            plain = client.request("POST", "/solve",
                                   {"instance": instance.to_dict()})
        assert named["ok"] and plain["ok"]
        named["mapping"].pop("runtime_s")
        plain["mapping"].pop("runtime_s")
        assert named["mapping"] == plain["mapping"]

    @pytest.mark.parametrize("value", [7, ["numpy"], True])
    def test_non_string_backend_field_gets_400(self, value):
        from http.client import HTTPConnection

        instance = _instances(1)[0]
        with BackgroundServer(ServiceConfig(max_wait_ms=0.0)) as server:
            conn = HTTPConnection(server.host, server.port, timeout=30)
            status, payload = _post_raw(conn, {"instance": instance.to_dict(),
                                               "backend": value})
            conn.close()
        assert status == 400
        assert payload["ok"] is False and "numpy" in payload["error"]


class TestHealthz:
    def test_status_payload(self):
        config = ServiceConfig(max_batch=4, max_wait_ms=7.0, workers=None,
                               default_solver="elpc-tensor")
        with BackgroundServer(config) as server:
            status = server.client().healthz()
        assert status["status"] == "ok"
        assert status["queue_depth"] == 0
        assert status["max_batch"] == 4
        assert status["max_wait_ms"] == 7.0
        assert status["default_solver"] == "elpc-tensor"
        assert status["workers"] == 1

    def test_wait_ready_times_out_against_dead_port(self):
        client = ServiceClient(port=1)  # nothing listens there
        with pytest.raises(ServiceUnavailableError):
            client.wait_ready(timeout=0.2, interval=0.05)


class TestDeltaProtocol:
    def test_healthz_incremental_counters_start_at_zero(self):
        with BackgroundServer(ServiceConfig(max_batch=4)) as server:
            status = server.client().healthz()
        assert status["view_epoch"] == 0
        assert status["delta_patches_total"] == 0
        assert status["rebuilds_total"] == 0
        assert status["deltas_total"] == 0
        assert status["warm_solves_total"] == 0
        assert status["staleness_ms_mean"] == 0.0

    def test_delta_roundtrip_updates_counters_and_versions_ref(self):
        instances = _instances(2)
        network = instances[0].network
        link = network.links()[0]
        with BackgroundServer(ServiceConfig(max_batch=4)) as server:
            client = server.client()
            first = client.solve(instances[0])
            base_ref = first["network_ref"]
            assert "@" not in base_ref  # undrifted networks keep a bare ref
            response = client.apply_delta(base_ref, [
                {"kind": "bandwidth", "u": link.start_node,
                 "v": link.end_node,
                 "value": link.bandwidth_mbps * 0.5},
                {"kind": "power", "node": network.node_ids()[0],
                 "value": network.processing_power(network.node_ids()[0])
                 * 2.0},
            ])
            assert response["ok"] is True
            assert response["edits_applied"] == 2
            # Drifted networks answer with an epoch-versioned ref.
            assert response["network_ref"].startswith(base_ref + "@")
            assert response["view_epoch"] > 0
            # The versioned ref is accepted wherever a bare ref is.
            second = client.solve(instances[1])
            status = client.healthz()
        assert second["ok"] is True
        assert status["deltas_total"] == 1
        assert status["delta_patches_total"] == 2
        assert status["view_epoch"] == response["view_epoch"]
        # The post-delta solve on the patched network counts as warm-capable
        # traffic and closes the staleness window.
        assert status["warm_solves_total"] == 1
        assert status["staleness_ms_mean"] > 0.0

    def test_delta_is_atomic_on_invalid_edit(self):
        instances = _instances(1)
        with BackgroundServer(ServiceConfig(max_batch=4)) as server:
            client = server.client()
            first = client.solve(instances[0])
            ref = first["network_ref"]
            response = client.request("POST", "/delta", {
                "schema": WIRE_SCHEMA, "ref": ref,
                "edits": [
                    {"kind": "power", "node": instances[0].network.node_ids()[0],
                     "value": 99.0},
                    {"kind": "power", "node": 10_000, "value": 1.0},  # bad
                ]})
            status = client.healthz()
        assert response["ok"] is False
        assert "10000" in response["error"] or "10_000" in response["error"]
        # Validate-then-apply: the good edit must not have landed either.
        assert status["delta_patches_total"] == 0
        assert status["deltas_total"] == 0

    def test_delta_against_unknown_ref_is_recorded_error(self):
        with BackgroundServer(ServiceConfig(max_batch=4)) as server:
            response = server.client().request("POST", "/delta", {
                "schema": WIRE_SCHEMA, "ref": "no-such-digest",
                "edits": [{"kind": "power", "node": 0, "value": 1.0}]})
        assert response["ok"] is False
        assert "no-such-digest" in response["error"]


class TestGracefulShutdown:
    def test_close_drains_pending_requests(self):
        """Requests still queued when close() arrives are answered, not
        dropped — the max_wait window is cut short by the drain."""
        instances = _instances(3)

        async def scenario():
            service = SolveService(ServiceConfig(max_batch=100,
                                                 max_wait_ms=60_000.0))
            await service.start()
            tasks = [asyncio.ensure_future(
                service.submit(SolveRequest(instance=inst)))
                for inst in instances]
            await asyncio.sleep(0.05)  # let submissions queue, not flush
            assert service.queue_depth == 3
            await service.close(drain=True)
            return [task.result() for task in tasks]

        responses = asyncio.run(scenario())
        assert all(r["ok"] for r in responses)
        assert all(r["group_size"] == 3 for r in responses)

    def test_close_without_drain_answers_shutdown_errors(self):
        instances = _instances(2)

        async def scenario():
            service = SolveService(ServiceConfig(max_batch=100,
                                                 max_wait_ms=60_000.0))
            await service.start()
            tasks = [asyncio.ensure_future(
                service.submit(SolveRequest(instance=inst)))
                for inst in instances]
            await asyncio.sleep(0.05)
            await service.close(drain=False)
            return [task.result() for task in tasks]

        responses = asyncio.run(scenario())
        assert all(r["ok"] is False for r in responses)
        assert all("shutting down" in r["error"] for r in responses)

    def test_background_server_stop_is_graceful(self):
        instances = _instances(2)
        server = BackgroundServer(ServiceConfig(max_wait_ms=0.0)).start()
        try:
            responses = _post_all(server.client(), instances)
            assert all(r["ok"] for r in responses)
        finally:
            server.stop()
        with pytest.raises(ServiceUnavailableError):
            server.client().healthz()


class TestServiceWorkers:
    def test_parallel_runner_backs_flushes(self):
        """workers=2 keeps one persistent pool under every flush and results
        stay identical to the in-process service."""
        instances = _instances(6)
        direct = solve_many(instances, solver="elpc-tensor")
        config = ServiceConfig(max_batch=6, max_wait_ms=5000.0, workers=2)
        with BackgroundServer(config) as server:
            responses = _post_all(server.client(), instances)
            status = server.client().healthz()
        assert all(r["ok"] for r in responses)
        for item, response in zip(direct.items, responses):
            assert response["mapping"]["delay_ms"] == item.mapping.delay_ms
        assert status["workers"] == 2
        assert status["runner"]["workers"] == 2
        assert status["runner"]["pool_started"] is True
        assert status["runner"]["exported_networks"] >= 1


class TestServeCli:
    def test_unknown_solver_exit_1(self, capsys):
        from repro.cli import main

        for name in ("no-such-engine", "elpc-vec"):
            assert main(["serve", "--solver", name]) == 1
            assert name in capsys.readouterr().err

    def test_bad_max_batch_exit_1(self, capsys):
        from repro.cli import main

        assert main(["serve", "--max-batch", "0"]) == 1
        assert "max_batch" in capsys.readouterr().err

    def test_serve_subprocess_end_to_end(self):
        """`repro serve` as a real process: announce line, client solve,
        SIGINT drain, exit 0 — the same path the CI smoke step drives."""
        import os
        import re
        import signal
        import subprocess
        import sys

        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-c",
             "from repro.cli import main; raise SystemExit("
             "main(['serve', '--port', '0', '--max-wait-ms', '1']))"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env,
            text=True)
        try:
            announce = proc.stdout.readline()
            match = re.search(r"listening on 127\.0\.0\.1:(\d+)", announce)
            assert match, f"no announce line, got {announce!r}"
            client = ServiceClient(port=int(match.group(1)))
            client.wait_ready(timeout=30)
            response = client.solve(make_case(PAPER_CASE_SPECS[0]))
            assert response["ok"] and response["mapping"]["path"]
        finally:
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=30) == 0
        assert "drained and stopped" in proc.stdout.read()

class TestReplicaTagging:
    def test_responses_carry_replica_id_zero_by_default(self):
        """Every JSON response names its serving replica; a plain
        single-process server is replica 0 (so loadtest attribution and the
        fleet tests have one uniform field to read)."""
        instances = _instances(1)
        with BackgroundServer(ServiceConfig(max_wait_ms=0.0)) as server:
            with server.client() as client:
                response = client.solve(instances[0])
                status = client.healthz()
        assert response["ok"] and response["replica_id"] == 0
        assert status["replica_id"] == 0
        assert "fleet" not in status  # no fleet table without --replicas


class TestKeepAlive:
    def test_multi_solve_session_uses_one_connection(self):
        """Regression: a session of solves + healthz rides ONE server-side
        connection (the pre-keep-alive client opened one per request)."""
        instances = _instances(4)
        with BackgroundServer(ServiceConfig(max_wait_ms=0.0)) as server:
            with server.client() as client:
                for instance in instances:
                    assert client.solve(instance)["ok"]
                status = client.healthz()
        assert status["connections_total"] == 1
        assert status["responses_total"] == len(instances)

    def test_per_request_mode_opens_a_connection_per_request(self):
        """keep_alive=False preserves the old transport: every exchange is
        its own TCP connection (the loadtest baseline's defining cost)."""
        instances = _instances(3)
        with BackgroundServer(ServiceConfig(max_wait_ms=0.0)) as server:
            with server.client(keep_alive=False) as client:
                for instance in instances:
                    assert client.solve(instance)["ok"]
                status = client.healthz()
        assert status["connections_total"] == len(instances) + 1  # + healthz

    def test_stale_socket_reconnects_transparently(self):
        """A server that drops the socket after each response (while still
        advertising keep-alive) only costs the client a silent retry."""
        import socket as socket_module

        listener = socket_module.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(8)
        port = listener.getsockname()[1]
        accepted = []
        body = json.dumps({"ok": True, "lying": "keep-alive"}).encode()
        head = (f"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: keep-alive\r\n\r\n").encode()

        def dummy_server():
            for _ in range(2):
                conn, _addr = listener.accept()
                accepted.append(1)
                conn.settimeout(5)
                while b"\r\n\r\n" not in conn.recv(65536):
                    pass
                conn.sendall(head + body)
                conn.close()  # the lie: advertised keep-alive, closed anyway

        thread = threading.Thread(target=dummy_server, daemon=True)
        thread.start()
        try:
            with ServiceClient(port=port, timeout=5) as client:
                assert client.request("GET", "/healthz")["ok"] is True
                assert client.reconnects_total == 0
                # The persistent socket is now dead; this must retry once on
                # a fresh connection rather than surface an error.
                assert client.request("GET", "/healthz")["ok"] is True
                # ...and the silent retry is observable for monitoring.
                assert client.reconnects_total == 1
            thread.join(timeout=5)
            assert len(accepted) == 2
        finally:
            listener.close()

    def test_dead_service_still_raises_immediately(self):
        with ServiceClient(port=1, timeout=1) as client:
            with pytest.raises(ServiceUnavailableError):
                client.healthz()

    def test_http10_client_gets_connection_close(self):
        """HTTP/1.0 without an opt-in keeps the old one-shot semantics."""
        import socket as socket_module

        with BackgroundServer(ServiceConfig(max_wait_ms=0.0)) as server:
            with socket_module.create_connection(("127.0.0.1", server.port),
                                                 timeout=5) as sock:
                sock.sendall(b"GET /healthz HTTP/1.0\r\nHost: x\r\n\r\n")
                raw = b""
                while True:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break  # server closed after the response
                    raw += chunk
        head = raw.split(b"\r\n\r\n", 1)[0].lower()
        assert b"connection: close" in head

    def test_http10_keep_alive_opt_in_is_honored(self):
        import socket as socket_module

        with BackgroundServer(ServiceConfig(max_wait_ms=0.0)) as server:
            with socket_module.create_connection(("127.0.0.1", server.port),
                                                 timeout=5) as sock:
                request = (b"GET /healthz HTTP/1.0\r\nHost: x\r\n"
                           b"Connection: keep-alive\r\n\r\n")
                for _ in range(2):  # second request rides the same socket
                    sock.sendall(request)
                    raw = b""
                    while b"\r\n\r\n" not in raw:
                        raw += sock.recv(65536)
                    head, _, rest = raw.partition(b"\r\n\r\n")
                    assert b"connection: keep-alive" in head.lower()
                    length = int(
                        [line.split(b":")[1] for line in head.split(b"\r\n")
                         if line.lower().startswith(b"content-length")][0])
                    while len(rest) < length:
                        rest += sock.recv(65536)
            status = server.client().healthz()
        assert status["connections_total"] == 2  # raw socket + healthz probe

    def test_shutdown_force_closes_idle_keepalive_connections(self):
        """stop() must not hang on a handler idling in its next-request read."""
        server = BackgroundServer(ServiceConfig(max_wait_ms=0.0)).start()
        client = server.client()
        try:
            assert client.solve(_instances(1)[0])["ok"]
            # The client's persistent socket is now idle server-side.
            server.stop()  # would deadlock if the handler were not closed
        finally:
            client.close()
        with pytest.raises(ServiceUnavailableError):
            server.client().healthz()


class TestBodyLimit:
    def test_oversized_body_refused_with_413(self):
        from http.client import HTTPConnection

        instance = _instances(1)[0]
        payload = SolveRequest(instance=instance).to_wire()
        body = json.dumps(payload).encode()
        config = ServiceConfig(max_wait_ms=0.0,
                               max_body_bytes=max(1024, len(body) - 1))
        with BackgroundServer(config) as server:
            connection = HTTPConnection("127.0.0.1", server.port, timeout=10)
            connection.request("POST", "/solve", body=body,
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            refused = json.loads(response.read())
            status_code = response.status
            will_close = response.will_close
            connection.close()
            # The refusal happens before any body buffering, and the server
            # closes the connection (framing after a refused body is
            # untrustworthy).  A fresh connection must still be served.
            follow_up = server.client().healthz()
        assert status_code == 413
        assert refused["ok"] is False
        assert "refused" in refused["error"]
        assert will_close
        assert follow_up["status"] == "ok"

    def test_body_under_limit_is_served(self):
        instance = _instances(1)[0]
        body_len = len(json.dumps(SolveRequest(instance=instance).to_wire()))
        config = ServiceConfig(max_wait_ms=0.0, max_body_bytes=body_len + 512)
        with BackgroundServer(config) as server:
            assert server.client(use_network_refs=False).solve(instance)["ok"]

    def test_max_body_bytes_validated(self):
        with pytest.raises(SpecificationError, match="max_body_bytes"):
            ServiceConfig(max_body_bytes=10)


class TestInternerConcurrency:
    def test_concurrent_interning_yields_one_object_per_topology(self):
        """N threads interning the same topologies concurrently must all get
        the identical object (a racing unlocked LRU could double-insert and
        silently split tensor groups)."""
        interner = NetworkInterner(max_entries=8)
        payloads = [random_network(6, 10, seed=seed).to_dict()
                    for seed in range(4)]
        n_threads, rounds = 8, 50
        seen = [set() for _ in payloads]
        barrier = threading.Barrier(n_threads)
        errors = []

        def worker(index):
            try:
                barrier.wait()
                for round_no in range(rounds):
                    which = (index + round_no) % len(payloads)
                    network, ref = interner.intern_with_ref(payloads[which])
                    assert interner.by_ref(ref) is network
                    seen[which].add(id(network))
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert all(len(ids) == 1 for ids in seen)  # one object per topology
        assert len(interner) == len(payloads)
        assert interner.hits + interner.misses >= n_threads * rounds

    def test_concurrent_interning_respects_lru_bound(self):
        interner = NetworkInterner(max_entries=3)
        payloads = [random_network(5, 8, seed=seed).to_dict()
                    for seed in range(10)]

        def worker(index):
            for round_no in range(30):
                interner.intern(payloads[(index + round_no) % len(payloads)])

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(interner) <= 3


class TestContinuousBatching:
    """Flush-policy behavior at the SolveService level, with a patched
    dispatch so the tests control executor busyness without wall-clock
    sleeps in any hot path."""

    @staticmethod
    def _fake_dispatch(service, batches, *, hold_s=0.0):
        """Replace _dispatch_partition: record batches, optionally simulate a
        busy executor for ``hold_s``, answer every request ok."""

        async def fake(entries):
            batches.append([request.instance.name
                            for request, _future, _arrived in entries])
            if hold_s:
                await asyncio.sleep(hold_s)
            for request, future, _arrived in entries:
                if not future.done():
                    future.set_result({"ok": True,
                                       "name": request.instance.name})
            service.responses_total += len(entries)

        service._dispatch_partition = fake

    def test_mid_flush_arrivals_dispatch_when_executor_frees(self):
        """The continuous-batching core claim: a request arriving while a
        flush is executing is dispatched the moment the executor frees —
        NOT after the max_wait_ms window (set here to a minute, so waiting
        out the window would visibly hang this test)."""
        instances = _instances(3)

        async def scenario():
            service = SolveService(ServiceConfig(max_batch=2,
                                                 max_wait_ms=60_000.0))
            batches = []
            await service.start()
            self._fake_dispatch(service, batches, hold_s=0.05)
            # a1 + a2 reach max_batch -> flush starts immediately.
            first = [asyncio.ensure_future(
                service.submit(SolveRequest(instance=inst)))
                for inst in instances[:2]]
            await asyncio.sleep(0.01)  # flush is now holding the executor
            late = asyncio.ensure_future(
                service.submit(SolveRequest(instance=instances[2])))
            responses = await asyncio.wait_for(
                asyncio.gather(*first, late), timeout=5.0)
            await service.close(drain=True)
            return service, batches, responses

        service, batches, responses = asyncio.run(scenario())
        assert all(r["ok"] for r in responses)
        assert batches == [[instances[0].name, instances[1].name],
                           [instances[2].name]]
        assert service.busy_flushes_total == 1
        assert service.flush_size_max == 2

    def test_idle_engine_flushes_within_max_wait(self):
        """With an idle executor the max_wait_ms window still bounds latency:
        a lone request is answered right after the window, without reaching
        max_batch."""
        import time as time_module

        instance = _instances(1)[0]

        async def scenario():
            service = SolveService(ServiceConfig(max_batch=32,
                                                 max_wait_ms=50.0))
            batches = []
            await service.start()
            self._fake_dispatch(service, batches)
            start = time_module.monotonic()
            response = await asyncio.wait_for(
                service.submit(SolveRequest(instance=instance)), timeout=5.0)
            elapsed = time_module.monotonic() - start
            await service.close(drain=True)
            return service, response, elapsed

        service, response, elapsed = asyncio.run(scenario())
        assert response["ok"]
        assert 0.04 <= elapsed < 5.0  # waited the window, not max_batch
        assert service.busy_flushes_total == 0
        assert service.flushes_total == 1

    def test_drain_on_close_answers_everything(self):
        """Requests parked in an open window (or accumulated behind a busy
        executor) are all answered by close(drain=True)."""
        instances = _instances(5)

        async def scenario():
            service = SolveService(ServiceConfig(max_batch=2,
                                                 max_wait_ms=60_000.0))
            batches = []
            await service.start()
            self._fake_dispatch(service, batches, hold_s=0.05)
            tasks = [asyncio.ensure_future(
                service.submit(SolveRequest(instance=inst)))
                for inst in instances]
            await asyncio.sleep(0.01)
            await service.close(drain=True)
            return service, batches, [task.result() for task in tasks]

        service, batches, responses = asyncio.run(scenario())
        assert all(r["ok"] for r in responses)
        assert sum(len(batch) for batch in batches) == len(instances)
        assert all(len(batch) <= 2 for batch in batches)  # max_batch respected
        assert service.responses_total == len(instances)

    def test_queue_wait_and_flush_counters_surface_in_healthz(self):
        instances = _instances(4)
        config = ServiceConfig(max_batch=4, max_wait_ms=5000.0)
        with BackgroundServer(config) as server:
            responses = _post_all(server.client(), instances)
            status = server.client().healthz()
        assert all(r["ok"] for r in responses)
        assert status["flushed_requests_total"] == 4
        assert status["flush_size_max"] == 4
        assert status["mean_flush_size"] == 4.0
        assert status["queue_wait_ms_mean"] >= 0.0
        assert status["queue_wait_ms_max"] >= status["queue_wait_ms_mean"]


class TestRequestParseCache:
    def test_replayed_identical_bodies_hit_the_parse_cache(self):
        """Byte-identical re-posts (the reference-path steady state) skip
        JSON decode + instance reconstruction server-side."""
        instance = _instances(1)[0]
        with BackgroundServer(ServiceConfig(max_wait_ms=0.0)) as server:
            with server.client() as client:
                first = client.solve(instance)    # full network post
                second = client.solve(instance)   # ref path
                third = client.solve(instance)    # ref path, identical bytes
                status = client.healthz()
        assert first["ok"] and second["ok"] and third["ok"]
        assert status["request_cache_hits"] == 1
        assert (first["mapping"]["delay_ms"] == second["mapping"]["delay_ms"]
                == third["mapping"]["delay_ms"])
