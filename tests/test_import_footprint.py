"""The solve and serve paths load only what they run.

:class:`~repro.model.TransportNetwork` keeps its own adjacency, so networkx is
imported only on call by the few queries that still use it
(:attr:`TransportNetwork.graph`, ``shortest_transfer_path``, the naive
baselines, the DAG extension and the ENSP reduction).  ``repro serve`` loads
neither the analysis/generator packages (nor ``numpy.random``) nor the HTTP
client, load harness or replica supervisor: ``repro.cli`` imports them per
subcommand and ``repro.service`` resolves its exports on first access.  The
checks run in fresh interpreters: the test process has all of these loaded
already.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro.service
from repro.core import Objective
from repro.generators import random_network, random_pipeline, random_request
from repro.model import ProblemInstance
from repro.service import SolveRequest

SRC = Path(__file__).resolve().parents[1] / "src"

FLOW = textwrap.dedent("""
    import sys

    import repro
    import repro.cli
    import repro.service.replicas
    import repro.service.server
    from repro.core import Objective, solve_many
    from repro.generators import random_network, random_pipeline, random_request
    from repro.model import ProblemInstance
    from repro.service import BackgroundServer, ServiceConfig

    network = random_network(12, 30, seed=3)
    instances = [
        ProblemInstance(pipeline=random_pipeline(5, seed=100 + i),
                        network=network,
                        request=random_request(network, seed=200 + i,
                                               min_hop_distance=2))
        for i in range(4)
    ]
    for objective in Objective:
        for solver in ("elpc-tensor", "elpc"):
            result = solve_many(instances, solver=solver, objective=objective)
            assert all(item.ok for item in result.items), (solver, objective)

    prior = solve_many(instances, warm_start=True)
    link = network.links()[0]
    network.set_bandwidth(link.start_node, link.end_node,
                          link.bandwidth_mbps * 0.5)
    warm = solve_many(instances, prior=prior)
    assert all(item.ok for item in warm.items)

    config = ServiceConfig(admission_control=True,
                           admission_capacity_factor=1e6)
    with BackgroundServer(config) as server:
        client = server.client()
        assert client.solve(instances[0])["ok"]  # full network payload
        for objective in Objective:  # network_ref payloads
            response = client.solve(instances[1], objective=objective)
            assert response["ok"], response
        delta = client.apply_delta(network, [
            {"kind": "power", "node": network.node_ids()[0], "value": 123.0}])
        assert delta["ok"], delta
        assert client.healthz()["status"] == "ok"
        client.close()

    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "networkx")
    assert not loaded, loaded[:5]
    network.graph
    assert "networkx" in sys.modules
    print("footprint ok")
""")


WIRE_ONLY = textwrap.dedent("""
    import sys

    import repro.service.wire

    unwanted = ["asyncio", "http.client", "multiprocessing",
                "repro.service.server", "repro.service.client",
                "repro.service.loadtest", "repro.service.replicas"]
    loaded = [name for name in unwanted if name in sys.modules]
    assert not loaded, loaded
    print("footprint ok")
""")

#: Serves one full-network solve, reference solves for both objectives, a
#: ``/delta`` and ``/healthz`` over a raw socket (``ServiceClient`` would load
#: ``http.client`` itself); the full-network body arrives on stdin.
SERVE_ONLY = textwrap.dedent("""
    import json
    import socket
    import sys

    import repro.cli
    from repro.service import BackgroundServer, ServiceConfig

    def call(stream, method, path, payload=None):
        body = b"" if payload is None else json.dumps(payload).encode()
        stream.write(f"{method} {path} HTTP/1.1\\r\\nHost: test\\r\\n"
                     f"Content-Length: {len(body)}\\r\\n\\r\\n".encode()
                     + body)
        stream.flush()
        status = int(stream.readline().split()[1])
        length = 0
        for line in iter(stream.readline, b"\\r\\n"):
            name, _sep, value = line.decode().partition(":")
            if name.lower() == "content-length":
                length = int(value)
        response = json.loads(stream.read(length))
        assert status == 200 and response.get("ok", True), response
        return response

    full = json.load(sys.stdin)
    config = ServiceConfig(admission_control=True,
                           admission_capacity_factor=1e6)
    with BackgroundServer(config) as server:
        with socket.create_connection((server.host, server.port)) as sock:
            stream = sock.makefile("rwb")
            ref = call(stream, "POST", "/solve", full)["network_ref"]
            for objective in ("min_delay", "max_frame_rate"):
                body = json.loads(json.dumps(full))
                body["instance"]["network"] = {"ref": ref}
                body["objective"] = objective
                call(stream, "POST", "/solve", body)
            node = full["instance"]["network"]["nodes"][0]["node_id"]
            call(stream, "POST", "/delta", {
                "ref": ref,
                "edits": [{"kind": "power", "node": node, "value": 123.0}]})
            assert call(stream, "GET", "/healthz")["status"] == "ok"
            stream.close()

    unwanted = ["numpy.random", "repro.analysis", "repro.generators",
                "repro.service.loadtest", "repro.service.client",
                "http.client"]
    loaded = [name for name in unwanted if name in sys.modules]
    assert not loaded, loaded
    print("footprint ok")
""")


def _run_fresh(script, stdin=None):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          input=stdin, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "footprint ok" in proc.stdout


def test_solve_and_serve_paths_never_import_networkx():
    _run_fresh(FLOW)


def test_wire_module_loads_no_server_client_or_processes():
    _run_fresh(WIRE_ONLY)


def test_serving_loads_no_analysis_generators_or_client():
    network = random_network(12, 30, seed=3)
    instance = ProblemInstance(
        pipeline=random_pipeline(5, seed=100), network=network,
        request=random_request(network, seed=200, min_hop_distance=2))
    body = SolveRequest(instance=instance, objective=Objective.MIN_DELAY)
    _run_fresh(SERVE_ONLY, stdin=json.dumps(body.to_wire()))


def test_service_exports_resolve_and_are_listed():
    listed = dir(repro.service)
    for name in repro.service.__all__:
        assert getattr(repro.service, name) is not None
        assert name in listed


def test_unknown_service_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.service.no_such_name
