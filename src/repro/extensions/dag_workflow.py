"""Extension: general graph (DAG) workflows (paper Section 5, future work).

The paper restricts itself to *linear* pipelines and lists "extend linear
pipelines to graph workflows and study the complexity of and develop efficient
solutions to graph workflow mapping problems" as future work.  This module
provides that extension as a usable, clearly-scoped feature:

* :class:`DagWorkflow` — a directed acyclic workflow whose tasks carry the
  same cost parameters as pipeline modules (complexity, per-edge data sizes),
* :func:`linearize_pipeline` — embeds a linear :class:`~repro.model.pipeline.Pipeline`
  as a chain-shaped DAG (so the two representations interoperate),
* :func:`map_dag_earliest_finish` — a list-scheduling heuristic in the spirit
  of HEFT: tasks are ranked by upward rank (critical-path length to the exit)
  and greedily assigned to the node minimising their earliest finish time,
  with inter-node messages routed over the network's minimum-latency path,
* :func:`dag_makespan` — evaluates the end-to-end completion time of a given
  assignment, which reduces to Eq. 1 when the DAG is a chain.

This is deliberately a *heuristic* extension — the linear-pipeline DP does not
generalise to DAGs (the problem becomes NP-hard) — and it is benchmarked as an
ablation, not as part of the paper's own evaluation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..exceptions import SpecificationError
from ..model.cost import computing_time_ms
from ..model.network import EndToEndRequest, TransportNetwork
from ..model.pipeline import Pipeline
from ..types import NodeId

__all__ = [
    "DagTask",
    "DagWorkflow",
    "linearize_pipeline",
    "DagMappingResult",
    "map_dag_earliest_finish",
    "dag_makespan",
]


@dataclass(frozen=True)
class DagTask:
    """One task (vertex) of a DAG workflow.

    ``complexity`` has the same meaning as a pipeline module's complexity; the
    task's workload is ``complexity`` times the *total* number of bytes it
    receives from its predecessors.
    """

    task_id: int
    complexity: float
    name: Optional[str] = None

    def __post_init__(self) -> None:
        if self.task_id < 0:
            raise SpecificationError("task_id must be non-negative")
        if self.complexity < 0:
            raise SpecificationError("complexity must be non-negative")


class DagWorkflow:
    """A directed acyclic workflow with per-edge data volumes.

    Edges carry ``data_bytes`` — the message transferred from the producing
    task to the consuming task.  A single entry task (no predecessors) and a
    single exit task (no successors) are required, mirroring the pipeline's
    data source and end user.
    """

    def __init__(self) -> None:
        import networkx as nx

        self._graph = nx.DiGraph()
        self._tasks: Dict[int, DagTask] = {}

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_task(self, task: DagTask) -> None:
        """Register a task; ids must be unique."""
        if task.task_id in self._tasks:
            raise SpecificationError(f"duplicate task_id {task.task_id}")
        self._tasks[task.task_id] = task
        self._graph.add_node(task.task_id)

    def add_dependency(self, producer: int, consumer: int, data_bytes: float) -> None:
        """Declare that ``consumer`` needs ``data_bytes`` produced by ``producer``."""
        import networkx as nx

        if producer not in self._tasks or consumer not in self._tasks:
            raise SpecificationError("both endpoints must be registered tasks")
        if data_bytes < 0:
            raise SpecificationError("data_bytes must be non-negative")
        self._graph.add_edge(producer, consumer, data_bytes=float(data_bytes))
        if not nx.is_directed_acyclic_graph(self._graph):
            self._graph.remove_edge(producer, consumer)
            raise SpecificationError(
                f"dependency {producer}->{consumer} would create a cycle")

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def n_tasks(self) -> int:
        """Number of tasks in the workflow."""
        return len(self._tasks)

    def task(self, task_id: int) -> DagTask:
        """The task object with the given id."""
        try:
            return self._tasks[task_id]
        except KeyError:
            raise SpecificationError(f"unknown task_id {task_id}") from None

    def task_ids(self) -> List[int]:
        """All task ids in topological order."""
        import networkx as nx

        return list(nx.topological_sort(self._graph))

    def predecessors(self, task_id: int) -> List[int]:
        """Direct predecessors of a task."""
        return sorted(self._graph.predecessors(task_id))

    def successors(self, task_id: int) -> List[int]:
        """Direct successors of a task."""
        return sorted(self._graph.successors(task_id))

    def edge_bytes(self, producer: int, consumer: int) -> float:
        """Data volume of the edge ``producer -> consumer``."""
        try:
            return float(self._graph[producer][consumer]["data_bytes"])
        except KeyError:
            raise SpecificationError(f"no edge {producer}->{consumer}") from None

    def entry_task(self) -> int:
        """The unique task with no predecessors."""
        entries = [t for t in self._graph.nodes if self._graph.in_degree(t) == 0]
        if len(entries) != 1:
            raise SpecificationError(
                f"workflow must have exactly one entry task, found {entries}")
        return entries[0]

    def exit_task(self) -> int:
        """The unique task with no successors."""
        exits = [t for t in self._graph.nodes if self._graph.out_degree(t) == 0]
        if len(exits) != 1:
            raise SpecificationError(
                f"workflow must have exactly one exit task, found {exits}")
        return exits[0]

    def task_input_bytes(self, task_id: int) -> float:
        """Total bytes a task receives from all its predecessors."""
        return sum(self.edge_bytes(p, task_id) for p in self.predecessors(task_id))

    def validate(self) -> None:
        """Check single-entry / single-exit / acyclicity; raise on violation."""
        import networkx as nx

        if self.n_tasks < 2:
            raise SpecificationError("a workflow needs at least 2 tasks")
        self.entry_task()
        self.exit_task()
        if not nx.is_directed_acyclic_graph(self._graph):  # pragma: no cover
            raise SpecificationError("workflow contains a cycle")

    def upward_rank(self, network: TransportNetwork) -> Dict[int, float]:
        """HEFT-style upward rank of every task.

        ``rank(t) = avg_compute_time(t) + max over successors s of
        (avg_transfer_time(t, s) + rank(s))``, using network-average node power
        and bandwidth.  Higher rank = closer to the critical path.
        """
        mean_power = (network.total_processing_power() / network.n_nodes)
        mean_bw = max(network.mean_bandwidth(), 1e-9)
        rank: Dict[int, float] = {}
        for task_id in reversed(self.task_ids()):
            task = self.task(task_id)
            compute = task.complexity * self.task_input_bytes(task_id) / (mean_power * 1e3)
            best_succ = 0.0
            for succ in self.successors(task_id):
                transfer = self.edge_bytes(task_id, succ) * 8.0 / (mean_bw * 1e3)
                best_succ = max(best_succ, transfer + rank[succ])
            rank[task_id] = compute + best_succ
        return rank


def linearize_pipeline(pipeline: Pipeline) -> DagWorkflow:
    """Embed a linear pipeline as a chain-shaped DAG workflow.

    The chain has one task per module and one edge per inter-module message;
    mapping it with the DAG heuristic and evaluating the makespan reproduces
    the Eq. 1 delay of the corresponding linear mapping, which the tests use
    to cross-check the two code paths.
    """
    dag = DagWorkflow()
    for mod in pipeline.modules:
        dag.add_task(DagTask(task_id=mod.module_id, complexity=mod.complexity,
                             name=mod.name))
    for mod in pipeline.modules[:-1]:
        dag.add_dependency(mod.module_id, mod.module_id + 1, mod.output_bytes)
    return dag


@dataclass(frozen=True)
class DagMappingResult:
    """Result of mapping a DAG workflow onto a transport network.

    Attributes
    ----------
    assignment:
        task id → node id.
    makespan_ms:
        Completion time of the exit task.
    finish_times_ms:
        Per-task finish times.
    runtime_s:
        Wall-clock solver time.
    """

    assignment: Dict[int, NodeId]
    makespan_ms: float
    finish_times_ms: Dict[int, float]
    runtime_s: float = 0.0
    extras: Dict[str, object] = field(default_factory=dict)


def _transfer_time(network: TransportNetwork, u: NodeId, v: NodeId,
                   data_bytes: float) -> float:
    """Minimum-latency transfer time between two (possibly non-adjacent) nodes."""
    if u == v or data_bytes == 0.0:
        return 0.0
    _path, total = network.shortest_transfer_path(u, v, data_bytes)
    return total


def dag_makespan(dag: DagWorkflow, network: TransportNetwork,
                 assignment: Mapping[int, NodeId]) -> Tuple[float, Dict[int, float]]:
    """Makespan of a DAG under a given assignment (single dataset, no contention).

    Each task starts when all its inbound messages have arrived; messages
    travel over the network's minimum-latency route between the producing and
    consuming nodes.  Returns ``(makespan_ms, per-task finish times)``.
    """
    dag.validate()
    finish: Dict[int, float] = {}
    for task_id in dag.task_ids():
        node = assignment.get(task_id)
        if node is None:
            raise SpecificationError(f"task {task_id} has no assigned node")
        task = dag.task(task_id)
        ready = 0.0
        for pred in dag.predecessors(task_id):
            arrive = finish[pred] + _transfer_time(
                network, assignment[pred], node, dag.edge_bytes(pred, task_id))
            ready = max(ready, arrive)
        compute = computing_time_ms(network, node, task.complexity,
                                    dag.task_input_bytes(task_id))
        finish[task_id] = ready + compute
    return finish[dag.exit_task()], finish


def map_dag_earliest_finish(dag: DagWorkflow, network: TransportNetwork,
                            request: EndToEndRequest) -> DagMappingResult:
    """HEFT-style list-scheduling heuristic for DAG workflow mapping.

    Tasks are processed in decreasing upward rank; each is assigned to the
    node that minimises its earliest finish time given the already-placed
    predecessors.  The entry task is pinned to the request's source node and
    the exit task to its destination.
    """
    start = time.perf_counter()
    dag.validate()
    request.validate(network)

    rank = dag.upward_rank(network)
    order = sorted(dag.task_ids(), key=lambda t: rank[t], reverse=True)
    # Pinning: place entry and exit first regardless of rank order.
    entry, exit_ = dag.entry_task(), dag.exit_task()

    assignment: Dict[int, NodeId] = {entry: request.source, exit_: request.destination}
    finish: Dict[int, float] = {}

    def earliest_finish(task_id: int, node: NodeId) -> float:
        task = dag.task(task_id)
        ready = 0.0
        for pred in dag.predecessors(task_id):
            if pred not in assignment or pred not in finish:
                continue  # unplaced predecessor: optimistic (HEFT processes ranks downward)
            arrive = finish[pred] + _transfer_time(
                network, assignment[pred], node, dag.edge_bytes(pred, task_id))
            ready = max(ready, arrive)
        return ready + computing_time_ms(network, node, task.complexity,
                                         dag.task_input_bytes(task_id))

    for task_id in order:
        if task_id in assignment:
            finish[task_id] = earliest_finish(task_id, assignment[task_id])
            continue
        best_node = min(network.node_ids(),
                        key=lambda nid: earliest_finish(task_id, nid))
        assignment[task_id] = best_node
        finish[task_id] = earliest_finish(task_id, best_node)

    # The greedy finish times above ignore not-yet-placed predecessors; compute
    # the true makespan of the final assignment.
    makespan, true_finish = dag_makespan(dag, network, assignment)
    runtime = time.perf_counter() - start
    return DagMappingResult(assignment=assignment, makespan_ms=makespan,
                            finish_times_ms=true_finish, runtime_s=runtime,
                            extras={"upward_rank": rank})
