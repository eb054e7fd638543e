"""The repository benchmark: serving and offline ELPC mapping, end to end.

Run from the repository root::

    python3 perfbench/run.py --workload serve-distinct --seed 1 --seconds 20 --trace 0

``--workload`` is ``serve-distinct``, ``serve-drift``, ``batch-churn`` or
``all``.  The inputs are a pure function of ``--seed``.  Each workload
measures for ``--seconds`` seconds, checks the program's outputs, and prints
its metrics by name with units, then a host record, then as the last line
one JSON object ``{"correct", "attempted", "failed", "metrics"}``:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``
(a separate run that adds the in-process traced replay).  Exit code 0 means
every output check and workload guard passed; 1 means one failed; 2 means
the program under test is not there.  NOTES.md explains the workloads, the
metrics and what each layer metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("serve-distinct", "serve-drift", "batch-churn")


def _commit() -> str:
    """The checked-out commit when run from a git work tree, else unknown."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _src_digest() -> str:
    """SHA-256 over every Python file under ``src/`` (the code measured)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_record(seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "placement": ("server and load generator share all allowed CPUs "
                      "(no pinning); batch-churn runs in this process"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "commit": _commit(),
        "src_sha256": _src_digest(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if name == "batch-churn":
        import offline

        return offline.run(seed, seconds, trace)
    import serveload
    import streams

    spec = {"serve-distinct": streams.SERVE_DISTINCT,
            "serve-drift": streams.SERVE_DRIFT}[name]
    log_dir = ROOT / ".perfbench"
    log_dir.mkdir(exist_ok=True)
    return serveload.run(spec, seed, seconds, trace, str(ROOT), str(log_dir))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program under test at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    names = WORKLOADS if args.workload == "all" else (args.workload,)

    correct = True
    attempted = failed = 0
    metrics = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        attempted += result["attempted"]
        failed += result["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, value, unit, note in result["report"]:
            print(f"{name:>15}  {metric:<24} {value:>12.4f} {unit:<8} {note}")
        if args.trace:
            import tracing

            for metric, unit in tracing.LAYER_METRICS.items():
                value = float(result["layers"][metric])
                print(f"{name:>15}  {metric:<36} {value:>12.4f} {unit}")
                metrics[prefix + metric] = {"value": value, "unit": unit}
        else:
            for metric, (value, unit) in result["end_to_end"].items():
                metrics[prefix + metric] = {"value": value, "unit": unit}
        for problem in result["problems"]:
            print(f"{name:>15}  CHECK FAILED: {problem}")
        correct = correct and not result["problems"]
    print("host " + json.dumps(host_record(args.seed)))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
