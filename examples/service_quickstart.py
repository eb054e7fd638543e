"""Serving quickstart: the micro-batching solve service end to end.

Starts the service in-process (the same stack ``repro serve`` runs), posts a
burst of concurrent same-network solve requests through the client helper,
and shows them coalescing into one tensor group flush — then prints the
service's health payload.  Run with::

    PYTHONPATH=src python examples/service_quickstart.py
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

from repro.generators import random_network, random_pipeline, random_request
from repro.model import ProblemInstance
from repro.service import BackgroundServer, ServiceConfig


def main() -> None:
    # Eight camera pipelines to map onto one shared transport network — the
    # streaming-service shape of the paper: long-lived infrastructure,
    # per-request pipelines.
    network = random_network(24, 60, seed=7)
    instances = [
        ProblemInstance(
            pipeline=random_pipeline(10, seed=70 + i),
            network=network,
            request=random_request(network, seed=170 + i, min_hop_distance=2),
            name=f"camera-{i}")
        for i in range(8)
    ]

    config = ServiceConfig(max_batch=8, max_wait_ms=250.0)
    with BackgroundServer(config) as server:
        client = server.client()
        print(f"service up on {server.host}:{server.port}")

        # Eight concurrent clients; the service coalesces them into one
        # micro-batch flush and the tensor engine solves them together.
        with ThreadPoolExecutor(max_workers=len(instances)) as pool:
            responses = list(pool.map(client.solve, instances))

        for response in responses:
            label = response["name"]
            if response["ok"]:
                mapping = response["mapping"]
                print(f"  {label}: delay {mapping['delay_ms']:8.2f} ms on "
                      f"path {mapping['path']} "
                      f"(group {response['group_id']}, "
                      f"size {response['group_size']})")
            else:
                print(f"  {label}: failed — {response['error']}")

        status = client.healthz()
        print(f"flushes: {status['flushes_total']} "
              f"(coalesced: {status['coalesced_flushes_total']}), "
              f"interned networks: {status['interned_networks']}, "
              f"solver: {status['default_solver']}")


if __name__ == "__main__":
    main()
