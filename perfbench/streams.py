"""Seeded inputs of the three workloads.

Everything here is a pure function of the run seed: the same seed gives the
same networks, pipelines, request bodies, tenant priorities, delta sequence
and arrival schedules.  The server and the in-process replay receive only
what these functions generate.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.batch import solve_many
from repro.core.mapping import Objective
from repro.generators.network_gen import random_network, random_request
from repro.generators.pipeline_gen import random_pipeline
from repro.model.network import TransportNetwork
from repro.model.serialization import ProblemInstance
from repro.service.wire import WIRE_SCHEMA, NetworkInterner

SOLVER = "elpc-tensor"

#: The networks are fixed infrastructure, the same in every run, so the
#: run-to-run spread does not include a different topology's cost; the run
#: seed varies the traffic over them (pipelines, serve-distinct endpoints,
#: priorities, deltas, churn, arrivals).
NETWORK_SEED = 20081


def sub_seed(seed: int, tag: str) -> int:
    """An independent 31-bit seed for one named input stream."""
    digest = hashlib.blake2b(f"{seed}:{tag}".encode(), digest_size=4).digest()
    return int.from_bytes(digest, "big") & 0x7FFFFFFF


@dataclass(frozen=True)
class ServeSpec:
    """Fixed shape of one serving workload (never derived from a measurement)."""

    name: str
    objective: Objective
    modules: int
    nodes: int
    links: int
    low_rps: float
    high_rps: float
    #: Distinct tenant pipelines re-planned round-robin; ``None`` means every
    #: request carries a pipeline never sent before in the run.
    pool: Optional[int] = None
    #: Every ``delta_every``-th operation is a ``POST /delta``; 0 = none.
    delta_every: int = 0
    #: ``repro serve`` flags beyond host/port.
    serve_args: Tuple[str, ...] = ()


SERVE_DISTINCT = ServeSpec(
    name="serve-distinct", objective=Objective.MIN_DELAY, modules=20,
    nodes=24, links=60, low_rps=100.0, high_rps=300.0)

#: 1e6 x the rated capacity: the admission ledger commits every request and
#: never refuses one, so the workload measures the ledger's cost, not its
#: policy.
ADMIT_ALL_FACTOR = 1e6

SERVE_DRIFT = ServeSpec(
    name="serve-drift", objective=Objective.MAX_FRAME_RATE, modules=10,
    nodes=40, links=120, low_rps=100.0, high_rps=280.0, pool=256,
    delta_every=50,
    serve_args=("--admission-control", "--admission-capacity-factor",
                repr(ADMIT_ALL_FACTOR)))


_REF_MARKER = "@@network-ref@@"


def _body(name: str, pipeline: Dict, request, objective: Objective,
          priority: int) -> Tuple[bytes, bytes]:
    """A reference-style solve body split around its network ref, so the
    sender can splice in the current ``digest@epoch`` without re-encoding."""
    payload = {
        "schema": WIRE_SCHEMA,
        "instance": {"name": name, "pipeline": pipeline,
                     "network": {"ref": _REF_MARKER},
                     "request": {"source": request.source,
                                 "destination": request.destination}},
        "solver": SOLVER,
        "objective": objective.value,
    }
    if priority:
        payload["priority"] = priority
    text = json.dumps(payload).encode("utf-8")
    prefix, _marker, suffix = text.partition(_REF_MARKER.encode("ascii"))
    return prefix, suffix


@dataclass
class ServeStream:
    """The request stream of one serving workload for one seed."""

    spec: ServeSpec
    seed: int
    network: TransportNetwork
    network_payload: Dict
    ref: str
    #: Full-network body posted once at start-up (interns the network).
    first_body: bytes
    #: (pipeline, request, priority) per body index, built on demand.
    _entries: List[Tuple[object, object, int]] = field(default_factory=list)
    _bodies: List[Tuple[bytes, bytes]] = field(default_factory=list)
    _pipe_seed: int = 0
    _req_seed: int = 0
    #: Pool workloads: each tenant's fixed (source, destination) sites.
    _endpoints: Optional[List] = None

    @classmethod
    def build(cls, spec: ServeSpec, seed: int) -> "ServeStream":
        network = random_network(spec.nodes, spec.links,
                                 seed=sub_seed(NETWORK_SEED, spec.name))
        payload = network.to_dict()
        ref = NetworkInterner.ref_of(payload)
        stream = cls(spec=spec, seed=seed, network=network,
                     network_payload=payload, ref=ref, first_body=b"",
                     _pipe_seed=sub_seed(seed, "pipelines"),
                     _req_seed=sub_seed(seed, "requests"))
        first = random_pipeline(spec.modules, seed=sub_seed(seed, "first"))
        request = random_request(network, seed=sub_seed(seed, "first-req"),
                                 min_hop_distance=2)
        instance = ProblemInstance(pipeline=first, network=network,
                                   request=request, name="first")
        stream.first_body = json.dumps({
            "schema": WIRE_SCHEMA, "instance": instance.to_dict(),
            "solver": SOLVER, "objective": spec.objective.value,
        }).encode("utf-8")
        if spec.pool is not None:
            stream._endpoints = mappable_endpoints(
                network, spec.modules, spec.pool, spec.objective,
                spec.name + "-endpoints")
            stream.extend(spec.pool)
        return stream

    def extend(self, count: int) -> None:
        """Make sure bodies ``0 .. count-1`` exist."""
        for index in range(len(self._entries), count):
            pipeline = random_pipeline(self.spec.modules,
                                       seed=self._pipe_seed + index)
            request = (self._endpoints[index] if self._endpoints is not None
                       else random_request(self.network,
                                           seed=self._req_seed + index,
                                           min_hop_distance=2))
            priority = (random.Random(self._req_seed ^ index).randint(0, 3)
                        if self.spec.pool is not None else 0)
            self._entries.append((pipeline, request, priority))
            name = (f"t{index}" if self.spec.pool is not None
                    else f"d{index}")
            self._bodies.append(_body(name, pipeline.to_dict(), request,
                                      self.spec.objective, priority))

    def body_index(self, op: int) -> int:
        """Which body the ``op``-th solve operation sends."""
        return op % self.spec.pool if self.spec.pool is not None else op

    def body(self, index: int, ref: str) -> bytes:
        if index >= len(self._bodies):
            self.extend(index + 1)
        prefix, suffix = self._bodies[index]
        return prefix + ref.encode("ascii") + suffix

    def instance(self, index: int, network: TransportNetwork
                 ) -> ProblemInstance:
        """The problem body ``index`` poses, over ``network``."""
        pipeline, request, _priority = self._entries[index]
        return ProblemInstance(pipeline=pipeline, network=network,
                               request=request, name=f"b{index}")

    def is_delta(self, op: int) -> bool:
        every = self.spec.delta_every
        return every > 0 and op % every == every - 1


def mappable_endpoints(network: TransportNetwork, modules: int, count: int,
                       objective: Objective, tag: str) -> List:
    """``count`` (source, destination) sites, fixed like the network: the
    first seeded pairs the engine maps at ``modules`` modules.

    Frame-rate mappings without node reuse need a simple path of exactly
    ``modules`` nodes, which some pairs lack, and no operation of a workload
    may fail.  Endpoints drawn per run seed also moved the server's
    per-request cost by up to 18% between seeds, through the frame-rate
    feasibility check's path search.
    """
    base = sub_seed(NETWORK_SEED, tag)
    probe = random_pipeline(modules, seed=base)
    candidates = [random_request(network, seed=base + j, min_hop_distance=2)
                  for j in range(2 * count)]
    result = solve_many([ProblemInstance(pipeline=probe, network=network,
                                         request=request)
                         for request in candidates],
                        solver=SOLVER, objective=objective)
    chosen = [request for request, item in zip(candidates, result.items)
              if item.ok][:count]
    if len(chosen) < count:
        raise RuntimeError(f"only {len(chosen)} mappable endpoints for {tag}")
    return chosen


class DeltaSequence:
    """Seeded ``±10%`` bandwidth edits, each on one seeded link.

    Holds a client-side mirror of the served network: :meth:`next_edits`
    applies each edit to the mirror as it hands it out, so after the run the
    mirror is the network the server should be solving on.
    """

    def __init__(self, network: TransportNetwork, seed: int) -> None:
        self.mirror = TransportNetwork.from_dict(network.to_dict())
        self._links = sorted((link.start_node, link.end_node)
                             for link in self.mirror.links())
        self._rng = random.Random(sub_seed(seed, "deltas"))
        self.count = 0

    def next_edits(self) -> List[Dict]:
        u, v = self._links[self._rng.randrange(len(self._links))]
        factor = 1.1 if self._rng.random() < 0.5 else 0.9
        value = self.mirror.bandwidth(u, v) * factor
        self.mirror.set_bandwidth(u, v, value)
        self.count += 1
        return [{"kind": "bandwidth", "u": u, "v": v, "value": value}]


# --------------------------------------------------------------------------- #
# batch-churn
# --------------------------------------------------------------------------- #
#: (nodes, links, pipelines per group) of the four offline networks.  The
#: 30-node network has 150 links, not 90: on sparse networks of at most 64
#: nodes the frame-rate feasibility check enumerates simple paths, and some
#: 30-node/90-link instances take seconds to tens of seconds (NOTES.md).
BATCH_GROUPS = ((30, 150, 48), (60, 180, 32), (120, 360, 16), (240, 720, 8))
BATCH_MODULES = 8
#: Share of each network's links whose bandwidth moves per churn step.
CHURN_LINK_SHARE = 0.01


@dataclass
class BatchStream:
    """Networks (as payloads) and pipelines of the offline workload."""

    seed: int
    payloads: List[Dict]
    #: Per network: [(pipeline, request)] of its group.
    problems: List[List[Tuple[object, object]]]

    @classmethod
    def build(cls, seed: int) -> "BatchStream":
        payloads, problems = [], []
        for g, (nodes, links, count) in enumerate(BATCH_GROUPS):
            network = random_network(nodes, links,
                                     seed=sub_seed(NETWORK_SEED,
                                                   f"batch-net-{g}"))
            payloads.append(network.to_dict())
            endpoints = mappable_endpoints(
                network, BATCH_MODULES, count, Objective.MAX_FRAME_RATE,
                f"batch-endpoints-{g}")
            base = sub_seed(seed, f"batch-pipes-{g}")
            problems.append([
                (random_pipeline(BATCH_MODULES, seed=base + i), endpoints[i])
                for i in range(count)])
        return cls(seed=seed, payloads=payloads, problems=problems)

    def fresh_groups(self) -> List[List[ProblemInstance]]:
        """New network objects (cold dense views) with their instances."""
        groups = []
        for payload, problems in zip(self.payloads, self.problems):
            network = TransportNetwork.from_dict(payload)
            groups.append([ProblemInstance(pipeline=p, network=network,
                                           request=r)
                           for p, r in problems])
        return groups


class ChurnSequence:
    """Seeded bandwidth churn: per step, 1% of each network's links move by
    a factor drawn from [0.8, 1.2]."""

    def __init__(self, networks: List[TransportNetwork], seed: int) -> None:
        self.networks = networks
        self._links = [sorted((l.start_node, l.end_node) for l in n.links())
                       for n in networks]
        self._rng = random.Random(sub_seed(seed, "churn"))

    def step_edits(self) -> List[List[Tuple[int, int, float]]]:
        """The next step's edits per network: ``[(u, v, new_bandwidth)]``."""
        out = []
        for network, links in zip(self.networks, self._links):
            count = max(1, round(CHURN_LINK_SHARE * len(links)))
            chosen = self._rng.sample(links, count)
            out.append([(u, v, network.bandwidth(u, v)
                         * self._rng.uniform(0.8, 1.2)) for u, v in chosen])
        return out
