"""The solve and serve paths never import networkx.

:class:`~repro.model.TransportNetwork` keeps its own adjacency, so networkx is
imported only on call by the few queries that still use it
(:attr:`TransportNetwork.graph`, ``shortest_transfer_path``, the naive
baselines, the DAG extension and the ENSP reduction).  The check runs in a
fresh interpreter: the test process itself has networkx loaded already.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

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


def test_solve_and_serve_paths_never_import_networkx():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", FLOW], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "footprint ok" in proc.stdout
