"""Command-line interface.

Three entry points are installed with the package:

* ``repro`` — umbrella command with subcommands: ``repro solve`` (map one
  instance or a batch with any registered algorithm, e.g.
  ``repro solve --solver elpc-tensor --case 3``), ``repro bench`` (regenerate
  the paper's evaluation artifacts, cross-check the ELPC engines and
  optionally ``--emit-json`` a machine-readable summary), ``repro
  bench-scaling`` (scalar ``elpc`` vs ``elpc-tensor`` runtime scaling
  table), ``repro bench-batch`` (looped-vs-batched tensor throughput
  table), ``repro serve`` (the keep-alive continuous-batching solve service of
  :mod:`repro.service` on a host/port, graceful drain on SIGINT/SIGTERM,
  optional ``--admission-control`` capacity gating), ``repro loadtest``
  (N concurrent closed-loop clients against a running server: p50/p99
  latency, throughput, achieved batch size), ``repro place`` (joint
  multi-tenant placement of a generated pipeline batch onto one
  capacity-limited cluster via :func:`repro.place_many`) and ``repro churn``
  (capacity-churn replay: scalar capacity events drift the network and each
  step re-plans warm-started from the previous DP tables, reporting
  staleness vs re-solve cost with a warm-vs-cold differential check).
* ``repro-map`` — legacy alias of ``repro solve``.
* ``repro-bench`` — legacy alias of ``repro bench``.

All of them are thin wrappers over the library API so everything they do is
also available programmatically.  ``repro bench`` exits with status 3 when
the two ELPC engines (the scalar ``elpc`` oracle and ``elpc-tensor``)
disagree on any suite case — the same verdict the CI benchmark gate archives
— so scripted pipelines cannot silently publish numbers from diverging
solvers.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from .analysis.comparison import check_solver_agreement
from .analysis.experiments import (
    reproduce_fig2,
    tensor_batch_speedup,
    vectorized_speedup,
    write_all_outputs,
)
from .core.batch import SolveOptions, place_many, solve_many
from .core.mapping import Objective
from .core.registry import available_solvers, get_solver
from .exceptions import ReproError, SpecificationError
from .generators.cases import make_case, paper_case_suite, PAPER_CASE_SPECS
from .generators.network_gen import random_network, random_request
from .generators.workloads import named_workloads
from .model.serialization import ProblemInstance, load_instance

__all__ = ["main", "main_map", "main_bench", "main_bench_scaling",
           "main_bench_batch", "main_serve", "main_loadtest", "main_place",
           "main_churn"]

#: Schema tag of the JSON written by ``repro bench --emit-json`` and by
#: ``benchmarks/check_regression.py`` — one format for both producers so the
#: CI regression gate can compare any two of their files.
BENCH_JSON_SCHEMA = "repro-bench/1"


def _build_map_parser(prog: str = "repro-map") -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description="Map a computing pipeline onto a network (Wu et al., IPDPS 2008).")
    parser.add_argument("--algorithm", "--solver", "-a", "-s", dest="algorithm",
                        default="elpc",
                        help="mapping algorithm / solver name (see --list-algorithms)")
    parser.add_argument("--objective", "-o", choices=["delay", "framerate"],
                        default="delay", help="optimisation objective")
    parser.add_argument("--instance", type=Path, default=None,
                        help="JSON problem-instance file written by repro.save_instance")
    parser.add_argument("--case", type=int, default=None,
                        help="use case N (1..20) of the built-in suite")
    parser.add_argument("--workload", choices=sorted(named_workloads()), default=None,
                        help="use a built-in domain pipeline on a random network")
    parser.add_argument("--nodes", type=int, default=20,
                        help="random network size when --workload is used")
    parser.add_argument("--links", type=int, default=60,
                        help="random network link count when --workload is used")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the random network when --workload is used")
    parser.add_argument("--batch-seeds", type=int, default=None, metavar="N",
                        help="with --workload: solve a batch of N instances "
                             "(random networks seeded seed..seed+N-1) through "
                             "repro.solve_many and print a summary table")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes for --batch-seeds (default: in-process)")
    parser.add_argument("--list-algorithms", action="store_true",
                        help="list registered algorithms and exit")
    return parser


def _resolve_instance(args: argparse.Namespace) -> ProblemInstance:
    chosen = [x is not None for x in (args.instance, args.case, args.workload)]
    if sum(chosen) != 1:
        raise ReproError(
            "choose exactly one of --instance, --case or --workload")
    if args.instance is not None:
        return load_instance(args.instance)
    if args.case is not None:
        if not 1 <= args.case <= len(PAPER_CASE_SPECS):
            raise ReproError(f"--case must be in 1..{len(PAPER_CASE_SPECS)}")
        return make_case(PAPER_CASE_SPECS[args.case - 1])
    pipeline = named_workloads()[args.workload]
    network = random_network(args.nodes, args.links, seed=args.seed)
    request = random_request(network, seed=args.seed, min_hop_distance=2)
    return ProblemInstance(pipeline=pipeline, network=network, request=request,
                           name=f"{args.workload}-on-random-{args.nodes}")


def _batch_instances(args: argparse.Namespace) -> List[ProblemInstance]:
    """Build the ``--batch-seeds`` instance sweep (workload on seeded networks)."""
    if args.workload is None:
        raise ReproError("--batch-seeds needs --workload (a pipeline to sweep)")
    if args.batch_seeds < 1:
        raise ReproError("--batch-seeds must be >= 1")
    pipeline = named_workloads()[args.workload]
    instances: List[ProblemInstance] = []
    for offset in range(args.batch_seeds):
        seed = args.seed + offset
        network = random_network(args.nodes, args.links, seed=seed)
        request = random_request(network, seed=seed, min_hop_distance=2)
        instances.append(ProblemInstance(
            pipeline=pipeline, network=network, request=request,
            name=f"{args.workload}-seed{seed}"))
    return instances


def _run_batch(args: argparse.Namespace, objective: Objective) -> int:
    instances = _batch_instances(args)
    options = SolveOptions(solver=args.algorithm, objective=objective,
                           workers=args.workers)
    result = solve_many(instances, options=options)
    unit = "ms delay" if objective is Objective.MIN_DELAY else "fps"
    print(f"batch: {len(result)} instances, solver={result.solver}, "
          f"objective={objective.value}, workers={result.workers}")
    for item in result:
        if item.ok:
            value = item.objective_value(objective)
            print(f"{item.name:>24}: {value:12.3f} {unit}  "
                  f"({item.runtime_s * 1e3:.2f} ms solve)")
        else:
            print(f"{item.name:>24}: infeasible — {item.error}")
    print(f"solved {result.n_solved}/{len(result)} "
          f"in {result.wall_time_s:.3f} s wall "
          f"({result.total_solver_time_s():.3f} s solver time)")
    return 0


def main_map(argv: Optional[Sequence[str]] = None, *,
             prog: str = "repro-map") -> int:
    """Entry point of ``repro-map`` / ``repro solve``; returns a process exit code."""
    parser = _build_map_parser(prog)
    args = parser.parse_args(argv)
    objective = (Objective.MIN_DELAY if args.objective == "delay"
                 else Objective.MAX_FRAME_RATE)
    if args.list_algorithms:
        for name in available_solvers(objective):
            print(name)
        return 0
    try:
        solver = get_solver(args.algorithm, objective)
        if args.batch_seeds is not None:
            return _run_batch(args, objective)
        instance = _resolve_instance(args)
        mapping = solver(instance.pipeline, instance.network, instance.request)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    from .analysis.reporting import mapping_walkthrough

    print(mapping_walkthrough(mapping,
                              title=f"{args.algorithm} / {objective.value} on "
                                    f"{instance.name or 'instance'}"))
    return 0


def _build_bench_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Regenerate the paper's evaluation artifacts (tables and "
                    "figures), cross-checking the ELPC engines.")
    parser.add_argument("--output", "-o", type=Path, default=Path("experiment_outputs"),
                        help="directory to write tables/curves into")
    parser.add_argument("--max-cases", type=int, default=None,
                        help="restrict the suite to the first N cases (faster)")
    parser.add_argument("--print-table", action="store_true",
                        help="also print the Fig. 2 table to stdout")
    parser.add_argument("--emit-json", type=Path, default=None, metavar="PATH",
                        help="write a machine-readable summary (engine "
                             "agreement + timings) in the repro-bench/1 "
                             "schema shared with benchmarks/check_regression.py")
    parser.add_argument("--skip-agreement", action="store_true",
                        help="skip the elpc / elpc-tensor cross-check "
                             "(agreement failures exit 3)")
    parser.add_argument("--workers", type=int, default=None,
                        help="run the engine cross-check over N worker "
                             "processes (shared-memory pool; results must "
                             "stay identical to the in-process run)")
    return parser


def main_bench(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``repro-bench``; returns a process exit code.

    Exit codes: 0 on success, 1 on a library error, 3 when the ELPC engines
    disagreed on at least one suite case (the artifacts and the JSON summary
    are still written so the disagreement can be inspected).
    """
    parser = _build_bench_parser()
    args = parser.parse_args(argv)
    agreement = None
    try:
        if args.print_table:
            fig2 = reproduce_fig2(max_cases=args.max_cases)
            print(fig2.table_text)
        written = write_all_outputs(args.output, max_cases=args.max_cases)
        if not args.skip_agreement:
            agreement = check_solver_agreement(
                paper_case_suite(max_cases=args.max_cases),
                workers=args.workers)
    except ReproError as exc:  # pragma: no cover - defensive
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.emit_json is not None:
        payload = {
            "schema": BENCH_JSON_SCHEMA,
            "source": "repro-bench",
            "metrics": {},
        }
        if agreement is not None:
            payload["agreement"] = agreement.to_dict()
            payload["metrics"] = {
                f"bench/solver:{name}": {"mean_s": seconds}
                for name, seconds in agreement.solver_time_s.items()
            }
        args.emit_json.parent.mkdir(parents=True, exist_ok=True)
        args.emit_json.write_text(json.dumps(payload, indent=2, sort_keys=True)
                                  + "\n", encoding="utf-8")
        print(f"{'bench-json':>16}: {args.emit_json}")
    for name, path in sorted(written.items()):
        print(f"{name:>16}: {path}")
    if agreement is not None:
        if agreement.ok:
            print(f"engine agreement: {', '.join(agreement.solvers)} agree on "
                  f"{agreement.n_cases} cases x "
                  f"{len(agreement.objectives)} objectives")
        else:
            print("error: ELPC engines disagree on "
                  f"{len(agreement.disagreements)} result(s):", file=sys.stderr)
            for disagreement in agreement.disagreements:
                print(f"  {disagreement.describe()}", file=sys.stderr)
            return 3
    return 0


def _parse_sizes(spec: str) -> List[Tuple[int, int, int]]:
    """Parse ``"m:n:l,m:n:l,..."`` into (modules, nodes, links) triples."""
    sizes: List[Tuple[int, int, int]] = []
    for chunk in spec.split(","):
        parts = chunk.strip().split(":")
        if len(parts) != 3:
            raise ReproError(
                f"bad --sizes entry {chunk!r}; expected modules:nodes:links")
        try:
            m, n, l = (int(p) for p in parts)
        except ValueError:
            raise ReproError(f"bad --sizes entry {chunk!r}; values must be "
                             "integers") from None
        sizes.append((m, n, l))
    return sizes


def _build_bench_scaling_parser(prog: str = "repro bench-scaling"
                                ) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description="Compare scalar elpc vs elpc-tensor runtimes across "
                    "problem sizes.")
    parser.add_argument("--sizes", type=str, default=None,
                        help="comma-separated modules:nodes:links triples "
                             "(default: a sweep up to 250 nodes)")
    parser.add_argument("--seed", type=int, default=7,
                        help="seed of the random instance per size")
    parser.add_argument("--repetitions", "-r", type=int, default=1,
                        help="measure best-of-N passes per solver")
    parser.add_argument("--workers", type=int, default=None,
                        help="fan both passes out over N worker processes "
                             "(shared-memory pool; default: in-process)")
    return parser


def main_bench_scaling(argv: Optional[Sequence[str]] = None, *,
                       prog: str = "repro bench-scaling") -> int:
    """Entry point of ``repro bench-scaling``; returns a process exit code."""
    parser = _build_bench_scaling_parser(prog)
    args = parser.parse_args(argv)
    try:
        sizes = _parse_sizes(args.sizes) if args.sizes else None
        result = vectorized_speedup(sizes=sizes, seed=args.seed,
                                    repetitions=args.repetitions,
                                    workers=args.workers)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(result.table_text())
    return 0


def _build_bench_batch_parser(prog: str = "repro bench-batch"
                              ) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description="Compare one elpc-tensor solve per item vs one batched "
                    "call for many pipelines over one shared network.")
    parser.add_argument("--batch-sizes", type=str, default="8,32,64",
                        help="comma-separated batch sizes (default: 8,32,64)")
    parser.add_argument("--modules", type=int, default=40,
                        help="pipeline length of every batched instance")
    parser.add_argument("--nodes", type=int, default=48,
                        help="shared network size")
    parser.add_argument("--links", type=int, default=96,
                        help="shared network link count")
    parser.add_argument("--seed", type=int, default=11,
                        help="seed of the shared network and the instances")
    parser.add_argument("--repetitions", "-r", type=int, default=1,
                        help="measure best-of-N passes per engine")
    parser.add_argument("--workers", type=int, default=None,
                        help="run both engines on a persistent N-worker "
                             "shared-memory pool (default: in-process)")
    return parser


def main_bench_batch(argv: Optional[Sequence[str]] = None, *,
                     prog: str = "repro bench-batch") -> int:
    """Entry point of ``repro bench-batch``; returns a process exit code."""
    parser = _build_bench_batch_parser(prog)
    args = parser.parse_args(argv)
    try:
        sizes = [int(chunk) for chunk in args.batch_sizes.split(",") if chunk.strip()]
        if not sizes or any(size < 1 for size in sizes):
            raise ReproError(f"bad --batch-sizes {args.batch_sizes!r}; expected "
                             "positive integers")
        result = tensor_batch_speedup(
            batch_sizes=sizes, n_modules=args.modules, k_nodes=args.nodes,
            n_links=args.links, seed=args.seed, repetitions=args.repetitions,
            workers=args.workers)
    except ValueError:
        print(f"error: bad --batch-sizes {args.batch_sizes!r}; values must be "
              "integers", file=sys.stderr)
        return 1
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(result.table_text())
    if result.value_mismatches:
        print(f"error: looped and tensor engines disagreed on "
              f"{result.value_mismatches} solve(s)", file=sys.stderr)
        return 3
    return 0


def _build_serve_parser(prog: str = "repro serve") -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description="Serve solve requests over HTTP with micro-batch "
                    "coalescing (repro.service; POST /solve, GET /healthz).")
    parser.add_argument("--host", default="127.0.0.1",
                        help="interface to bind (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8423,
                        help="TCP port (0 picks a free port; the resolved "
                             "port is announced on stdout)")
    parser.add_argument("--replicas", type=int, default=1,
                        help="pre-fork N replica processes behind one shared "
                             "listener (SO_REUSEPORT where available), "
                             "supervised with crash restart and graceful "
                             "drain (default: 1 = single process, POSIX only "
                             "above that)")
    parser.add_argument("--workers", type=int, default=None,
                        help="back every flush with a persistent N-worker "
                             "shared-memory pool (default: in-process)")
    parser.add_argument("--max-batch", type=int, default=32,
                        help="flush as soon as this many requests are queued")
    parser.add_argument("--max-wait-ms", type=float, default=2.0,
                        help="idle-engine bound: flush at latest this long "
                             "after the oldest queued request arrived (0 "
                             "disables coalescing); a busy solve executor "
                             "replaces the window")
    parser.add_argument("--max-body-bytes", type=int,
                        default=8 * 1024 * 1024,
                        help="refuse request bodies larger than this with "
                             "HTTP 413 (default: 8 MiB)")
    parser.add_argument("--solver", default="elpc-tensor",
                        help="solver for requests that do not name one "
                             "(default: elpc-tensor, so batches group)")
    parser.add_argument("--admission-control", action="store_true",
                        help="charge every successful solve against a "
                             "per-network capacity ledger "
                             "(repro.placement.ClusterState) and reject, "
                             "rather than answer, requests the cluster "
                             "cannot hold; higher-priority requests in a "
                             "batch are admitted first; with --replicas N "
                             "the supervisor creates one shared-memory "
                             "fleet ledger so all replicas charge the same "
                             "budgets (and a crashed replica's reservations "
                             "are released on reap)")
    parser.add_argument("--admission-capacity-factor", type=float, default=1.0,
                        help="scale the ledger's node and link budgets "
                             "(with --admission-control; default: 1.0)")
    parser.add_argument("--admission-demand-fps", type=float, default=1.0,
                        help="frame rate each admitted mapping is charged at "
                             "(with --admission-control; default: 1.0)")
    return parser


def main_serve(argv: Optional[Sequence[str]] = None, *,
               prog: str = "repro serve") -> int:
    """Entry point of ``repro serve``; returns a process exit code.

    Blocks serving until SIGINT/SIGTERM, then drains the queue (every
    accepted request is answered) before exiting 0.  With ``--replicas N``
    (N > 1, POSIX only) the process becomes a pre-fork supervisor: N replica
    processes share the announced listener, crashed replicas are restarted
    with bounded backoff, and the shutdown signal propagates as a graceful
    drain to every replica.  Configuration errors — an unknown ``--solver``,
    an unbindable port, ``--replicas > 1`` without ``os.fork`` — exit 1
    before the server accepts any request.
    """
    import asyncio
    import signal

    from .service import ServiceConfig, serve

    parser = _build_serve_parser(prog)
    args = parser.parse_args(argv)
    try:
        if args.replicas < 1:
            raise SpecificationError(
                f"--replicas must be >= 1, got {args.replicas}")
        get_solver(args.solver, Objective.MIN_DELAY)
        config = ServiceConfig(max_batch=args.max_batch,
                               max_wait_ms=args.max_wait_ms,
                               workers=args.workers,
                               default_solver=args.solver,
                               max_body_bytes=args.max_body_bytes,
                               admission_control=args.admission_control,
                               admission_capacity_factor=(
                                   args.admission_capacity_factor),
                               admission_demand_fps=args.admission_demand_fps)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.replicas > 1:
        from .service.replicas import ReplicaSupervisor

        def announce_fleet(sup) -> None:
            print(f"repro-serve listening on {sup.host}:{sup.port} "
                  f"(solver={config.default_solver}, "
                  f"max_batch={config.max_batch}, "
                  f"max_wait_ms={config.max_wait_ms:g}, "
                  f"workers={int(config.workers or 1)}, "
                  f"replicas={sup.replicas}, "
                  f"listener={'so_reuseport' if sup.reuse_port else 'shared-fd'}"
                  + (", admission=shared-ledger"
                     if config.admission_control else "")
                  + ")",
                  flush=True)

        try:
            supervisor = ReplicaSupervisor(config, host=args.host,
                                           port=args.port,
                                           replicas=args.replicas,
                                           announce=announce_fleet)
            code = supervisor.run()
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except OSError as exc:
            print(f"error: cannot bind {args.host}:{args.port} ({exc})",
                  file=sys.stderr)
            return 1
        print("repro-serve drained and stopped", flush=True)
        return code

    async def run() -> None:
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except NotImplementedError:  # pragma: no cover - non-POSIX loop
                pass

        def announce(server) -> None:
            print(f"repro-serve listening on {server.host}:{server.port} "
                  f"(solver={config.default_solver}, "
                  f"max_batch={config.max_batch}, "
                  f"max_wait_ms={config.max_wait_ms:g}, "
                  f"workers={int(config.workers or 1)})", flush=True)

        await serve(config, host=args.host, port=args.port, stop=stop,
                    announce=announce)

    try:
        asyncio.run(run())
    except KeyboardInterrupt:  # pragma: no cover - non-POSIX fallback
        pass
    except OSError as exc:
        print(f"error: cannot bind {args.host}:{args.port} ({exc})",
              file=sys.stderr)
        return 1
    print("repro-serve drained and stopped", flush=True)
    return 0


def _build_loadtest_parser(prog: str = "repro loadtest"
                           ) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description="Replay a workload against a running repro serve "
                    "instance — N concurrent closed-loop clients by default, "
                    "or an open-loop arrival schedule (--arrival-rate / "
                    "--trace) over a bounded connection pool — and report "
                    "p50/p99 latency, throughput, schedule lag, per-replica "
                    "attribution and achieved batch size "
                    "(repro.service.loadtest).")
    parser.add_argument("--host", default="127.0.0.1",
                        help="server host (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8423,
                        help="server port (default: 8423)")
    parser.add_argument("--clients", "-c", type=int, default=8,
                        help="concurrent closed-loop clients (default: 8)")
    parser.add_argument("--duration", "-d", type=float, default=2.0,
                        help="measured window in seconds (default: 2)")
    parser.add_argument("--solver", default="elpc-tensor",
                        help="solver every request names (default: "
                             "elpc-tensor, so coalesced requests group)")
    parser.add_argument("--objective", choices=["delay", "framerate"],
                        default="delay", help="optimisation objective")
    parser.add_argument("--instances", type=int, default=64,
                        help="generated workload size (default: 64 pipelines "
                             "over one shared network)")
    parser.add_argument("--modules", type=int, default=20,
                        help="pipeline length of generated instances")
    parser.add_argument("--nodes", type=int, default=24,
                        help="generated shared-network size")
    parser.add_argument("--links", type=int, default=60,
                        help="generated shared-network link count")
    parser.add_argument("--seed", type=int, default=5,
                        help="seed of the generated workload")
    parser.add_argument("--replay", type=Path, default=None, metavar="PATH",
                        help="recorded workload: JSONL of "
                             "ProblemInstance.to_dict payloads, replayed "
                             "round-robin (overrides the generated workload)")
    parser.add_argument("--arrival-rate", type=float, default=None,
                        metavar="RPS",
                        help="open-loop mode: offer requests on a Poisson "
                             "arrival schedule at this rate (req/s) over "
                             "--duration, deterministic under --seed, "
                             "instead of closed-loop clients")
    parser.add_argument("--trace", type=Path, default=None, metavar="PATH",
                        help="open-loop mode: replay a recorded trace — "
                             "JSONL of {\"t\": seconds, \"instance\": {...}} "
                             "— on its own timestamps (mutually exclusive "
                             "with --arrival-rate)")
    parser.add_argument("--max-connections", type=int, default=32,
                        metavar="M",
                        help="open-loop mode: size of the keep-alive "
                             "connection pool multiplexing the schedule "
                             "(default: 32)")
    parser.add_argument("--no-network-refs", action="store_true",
                        help="post the full network payload on every "
                             "request instead of switching to network_ref")
    parser.add_argument("--no-warmup", action="store_true",
                        help="skip the untimed warm-up round (connections "
                             "and network refs then establish inside the "
                             "measured window)")
    parser.add_argument("--emit-json", type=Path, default=None, metavar="PATH",
                        help="write the measurements in the repro-bench/1 "
                             "schema shared with benchmarks/"
                             "check_regression.py")
    return parser


def main_loadtest(argv: Optional[Sequence[str]] = None, *,
                  prog: str = "repro loadtest") -> int:
    """Entry point of ``repro loadtest``; returns a process exit code.

    Exit codes: 0 on a completed run; 1 when the run could not start — no
    server answers (unreachable host/port) or the workload/trace/parameters
    are unusable; 2 when the run happened but produced nothing usable —
    no request completed or every request failed (the summary is still
    printed either way, so a broken deployment is diagnosable and
    distinguishable from an absent one).
    """
    from .service import (generate_workload, load_trace, load_workload,
                          run_loadtest)
    from .service.client import ServiceUnavailableError

    parser = _build_loadtest_parser(prog)
    args = parser.parse_args(argv)
    objective = (Objective.MIN_DELAY if args.objective == "delay"
                 else Objective.MAX_FRAME_RATE)
    try:
        if args.arrival_rate is not None and args.trace is not None:
            raise SpecificationError(
                "--arrival-rate and --trace are mutually exclusive open-loop "
                "modes; pass one")
        trace = load_trace(args.trace) if args.trace is not None else None
        if args.replay is not None:
            instances = load_workload(args.replay)
        elif trace is not None:
            instances = None  # the trace carries its own instances
        else:
            instances = generate_workload(
                args.instances, n_modules=args.modules, n_nodes=args.nodes,
                n_links=args.links, seed=args.seed)
        result = run_loadtest(
            host=args.host, port=args.port, clients=args.clients,
            duration_s=args.duration, instances=instances,
            solver=args.solver, objective=objective,
            use_network_refs=not args.no_network_refs,
            warmup=not args.no_warmup,
            arrival_rate=args.arrival_rate, trace=trace,
            max_connections=args.max_connections, seed=args.seed)
    except ServiceUnavailableError as exc:
        print(f"error: server unreachable: {exc}", file=sys.stderr)
        return 1
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(result.table_text())
    if args.emit_json is not None:
        args.emit_json.parent.mkdir(parents=True, exist_ok=True)
        args.emit_json.write_text(
            json.dumps(result.to_bench_json(), indent=2, sort_keys=True)
            + "\n", encoding="utf-8")
        print(f"{'bench-json':>18}: {args.emit_json}")
    if result.requests_total == 0:
        print("error: no request completed inside the measured window",
              file=sys.stderr)
        return 2
    if result.errors_total == result.requests_total:
        print("error: every request failed — check the server's solver "
              "configuration and the workload's requests", file=sys.stderr)
        return 2
    return 0


def _build_place_parser(prog: str = "repro place") -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description="Place a batch of pipelines jointly onto one "
                    "capacity-limited cluster (repro.place_many): every "
                    "admitted mapping is charged against finite per-node "
                    "compute and per-link bandwidth budgets; requests that "
                    "no longer fit are rejected, not silently degraded.")
    parser.add_argument("--placer", default="place-greedy",
                        help="placement strategy: place-greedy (sequential "
                             "capacity-aware packing) or place-flow (joint "
                             "min-cost max-flow; see --list-placers)")
    parser.add_argument("--engine", default="elpc-tensor",
                        help="per-pipeline solver run on the residual "
                             "cluster (default: elpc-tensor)")
    parser.add_argument("--objective", choices=["delay", "framerate"],
                        default="delay", help="optimisation objective")
    parser.add_argument("--count", type=int, default=12,
                        help="generated batch size (default: 12 pipelines "
                             "over one shared network)")
    parser.add_argument("--modules", type=int, default=12,
                        help="pipeline length of generated instances")
    parser.add_argument("--nodes", type=int, default=24,
                        help="generated shared-cluster size")
    parser.add_argument("--links", type=int, default=60,
                        help="generated shared-cluster link count")
    parser.add_argument("--seed", type=int, default=5,
                        help="seed of the generated workload")
    parser.add_argument("--demand-fps", type=float, default=1.0,
                        help="frame rate each pipeline is charged at "
                             "(default: 1.0; raise it to oversubscribe)")
    parser.add_argument("--capacity-factor", type=float, default=1.0,
                        help="scale the cluster's node and link budgets "
                             "(default: 1.0; lower it to oversubscribe)")
    parser.add_argument("--order", default="priority",
                        choices=["priority", "input"],
                        help="packing order of place-greedy (default: "
                             "priority, descending then arrival)")
    parser.add_argument("--json", action="store_true",
                        help="print the machine-readable summary instead of "
                             "the table")
    parser.add_argument("--list-placers", action="store_true",
                        help="list registered placement strategies and exit")
    return parser


def main_place(argv: Optional[Sequence[str]] = None, *,
               prog: str = "repro place") -> int:
    """Entry point of ``repro place``; returns a process exit code.

    Exit codes: 0 on a completed placement run (even with rejections — they
    are the subsystem's point), 1 on a library error (unknown placer or
    engine, bad workload parameters, a ledger that fails validation).
    """
    from .placement import validate_placements
    from .service.loadtest import generate_workload

    parser = _build_place_parser(prog)
    args = parser.parse_args(argv)
    objective = (Objective.MIN_DELAY if args.objective == "delay"
                 else Objective.MAX_FRAME_RATE)
    if args.list_placers:
        from .placement import available_placers

        for name in available_placers():
            print(name)
        return 0
    try:
        instances = generate_workload(
            args.count, n_modules=args.modules, n_nodes=args.nodes,
            n_links=args.links, seed=args.seed)
        placer_kwargs = {"order": args.order} if args.placer == "place-greedy" else {}
        result = place_many(
            instances, placer=args.placer, engine=args.engine,
            objective=objective, demand_fps=args.demand_fps,
            node_capacity_factor=args.capacity_factor,
            link_capacity_factor=args.capacity_factor, **placer_kwargs)
        audit = validate_placements(result.items, result.cluster)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        payload = result.summary()
        payload["validated_utilization"] = audit
        print(json.dumps(payload, indent=2, sort_keys=True, default=str))
        return 0
    print(result.table())
    print(f"admitted {result.n_admitted}/{len(result.items)} "
          f"(placer={result.placer}, engine={result.engine}, "
          f"objective={objective.value}, demand_fps={args.demand_fps:g}, "
          f"capacity_factor={args.capacity_factor:g}) "
          f"in {result.wall_time_s:.3f} s wall; ledger validated clean")
    return 0


def _build_churn_parser(prog: str = "repro churn") -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description="Replay a capacity-churn stream against a mapped batch "
                    "(repro.simulation.simulate_churn): scalar "
                    "power/bandwidth/delay events drift the network, each "
                    "step re-plans warm-started from the previous DP tables "
                    "(differentially verified bit-identical to a cold "
                    "re-solve) and reports staleness vs re-solve cost.")
    parser.add_argument("--pipelines", type=int, default=16,
                        help="generated batch size (default: 16 pipelines "
                             "over one shared network)")
    parser.add_argument("--modules", type=int, default=12,
                        help="pipeline length of generated instances")
    parser.add_argument("--nodes", type=int, default=24,
                        help="generated shared-network size")
    parser.add_argument("--links", type=int, default=60,
                        help="generated shared-network link count")
    parser.add_argument("--steps", type=int, default=20,
                        help="churn steps to replay (default: 20; each step "
                             "is one event batch followed by one re-plan)")
    parser.add_argument("--edit-fraction", type=float, default=0.01,
                        help="fraction of links edited per step (default: "
                             "0.01, floored at one edit)")
    parser.add_argument("--edits-per-step", type=int, default=None,
                        help="explicit edits per step (overrides "
                             "--edit-fraction)")
    parser.add_argument("--amplitude", type=float, default=0.4,
                        help="drift amplitude: edited values are original * "
                             "U[1-a, 1+a] (default: 0.4)")
    parser.add_argument("--solver", default="elpc-tensor",
                        help="ELPC engine to re-plan with (default: "
                             "elpc-tensor; must be elpc or elpc-tensor "
                             "for warm starts)")
    parser.add_argument("--objective", choices=["delay", "framerate"],
                        default="delay", help="optimisation objective")
    parser.add_argument("--seed", type=int, default=5,
                        help="seed of the workload and the churn stream")
    parser.add_argument("--no-verify", action="store_true",
                        help="skip the per-step warm-vs-cold differential "
                             "check (timing-only runs)")
    parser.add_argument("--json", action="store_true",
                        help="print the machine-readable summary instead of "
                             "the table")
    parser.add_argument("--emit-json", type=Path, default=None, metavar="PATH",
                        help="write the measurements in the repro-bench/1 "
                             "schema shared with benchmarks/"
                             "check_regression.py")
    return parser


def main_churn(argv: Optional[Sequence[str]] = None, *,
               prog: str = "repro churn") -> int:
    """Entry point of ``repro churn``; returns a process exit code.

    Exit codes: 0 on a completed replay, 1 on a library error (bad workload
    parameters, non-warm-startable solver), 3 when any warm re-solve
    disagreed with its cold reference — the same "engines diverged" verdict
    ``repro bench`` uses, so scripted pipelines cannot publish speedups from
    a broken incremental engine.
    """
    from .service.loadtest import generate_workload
    from .simulation import generate_churn_events, simulate_churn

    parser = _build_churn_parser(prog)
    args = parser.parse_args(argv)
    objective = (Objective.MIN_DELAY if args.objective == "delay"
                 else Objective.MAX_FRAME_RATE)
    try:
        instances = generate_workload(
            args.pipelines, n_modules=args.modules, n_nodes=args.nodes,
            n_links=args.links, seed=args.seed)
        network = instances[0].network
        events = generate_churn_events(
            network, n_steps=args.steps, edit_fraction=args.edit_fraction,
            edits_per_step=args.edits_per_step, amplitude=args.amplitude,
            seed=args.seed)
        result = simulate_churn(network, instances, events,
                                solver=args.solver, objective=objective,
                                verify=not args.no_verify)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(result.to_bench_json(), indent=2, sort_keys=True))
    else:
        print(result.table_text())
    if args.emit_json is not None:
        args.emit_json.parent.mkdir(parents=True, exist_ok=True)
        args.emit_json.write_text(
            json.dumps(result.to_bench_json(), indent=2, sort_keys=True)
            + "\n", encoding="utf-8")
        print(f"{'bench-json':>18}: {args.emit_json}")
    if result.mismatches_total:
        print(f"error: {result.mismatches_total} warm re-solves disagreed "
              "with their cold reference", file=sys.stderr)
        return 3
    return 0


_SUBCOMMANDS = {
    "solve": "map a pipeline onto a network (alias: map)",
    "map": "alias of solve",
    "bench": "regenerate the paper's evaluation artifacts (+engine agreement)",
    "bench-scaling": "scalar vs tensor runtime scaling table",
    "bench-batch": "looped vs tensor batched-throughput table",
    "serve": "HTTP solve service with keep-alive continuous batching",
    "loadtest": "closed-loop load harness against a running repro serve",
    "place": "joint multi-tenant placement onto a capacity-limited cluster",
    "churn": "capacity-churn replay: warm-started re-planning vs staleness",
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of the umbrella ``repro`` command; returns an exit code."""
    args = list(sys.argv[1:] if argv is None else argv)
    if not args or args[0] in ("-h", "--help"):
        print("usage: repro <command> [options]\n\ncommands:")
        for name, help_text in _SUBCOMMANDS.items():
            print(f"  {name:<14} {help_text}")
        print("\nrun `repro <command> --help` for command options")
        return 0
    command, rest = args[0], args[1:]
    if command in ("solve", "map"):
        return main_map(rest, prog=f"repro {command}")
    if command == "bench":
        return main_bench(rest)
    if command == "bench-scaling":
        return main_bench_scaling(rest)
    if command == "bench-batch":
        return main_bench_batch(rest)
    if command == "serve":
        return main_serve(rest)
    if command == "loadtest":
        return main_loadtest(rest)
    if command == "place":
        return main_place(rest)
    if command == "churn":
        return main_churn(rest)
    print(f"error: unknown command {command!r}; "
          f"expected one of {sorted(_SUBCOMMANDS)}", file=sys.stderr)
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
