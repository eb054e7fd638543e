"""Tests for the CI perf-regression gate (``benchmarks/check_regression.py``).

The script is not part of the installed package (it lives next to the
benchmarks and is invoked by the CI ``bench`` job), so it is loaded from its
file path and exercised through its ``main`` entry point with temp files —
exactly how CI drives it.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "check_regression.py"
_spec = importlib.util.spec_from_file_location("check_regression", _SCRIPT)
check_regression = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_regression)


def _pytest_benchmark_payload(means):
    return {
        "benchmarks": [
            {
                "fullname": f"benchmarks/test_x.py::{name}",
                "name": name,
                "stats": {"mean": mean, "stddev": mean / 10, "rounds": 5},
                "extra_info": {"speedups": [6.0, 6.2], "note": "text ignored"},
            }
            for name, mean in means.items()
        ]
    }


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestNormalize:
    def test_pytest_benchmark_payload(self):
        raw = _pytest_benchmark_payload({"test_a": 0.5})
        normalized = check_regression.normalize(raw, sha="abc123")
        assert normalized["schema"] == "repro-bench/1"
        assert normalized["sha"] == "abc123"
        metric = normalized["metrics"]["benchmarks/test_x.py::test_a"]
        assert metric["mean_s"] == 0.5
        assert metric["rounds"] == 5
        # numeric extra_info entries are archived, non-numeric dropped
        assert "extra:note" not in metric

    def test_repro_bench_payload_passthrough(self):
        raw = {"schema": "repro-bench/1", "source": "repro-bench",
               "metrics": {"bench/solver:elpc": {"mean_s": 0.1}}}
        normalized = check_regression.normalize(raw, sha="s")
        assert normalized["metrics"] == raw["metrics"]
        assert normalized["sha"] == "s"


class TestGate:
    def test_within_threshold_passes(self, tmp_path, capsys):
        baseline = _write(tmp_path, "base.json", check_regression.normalize(
            _pytest_benchmark_payload({"test_a": 0.100})))
        current = _write(tmp_path, "cur.json",
                         _pytest_benchmark_payload({"test_a": 0.120}))
        code = check_regression.main(["--input", str(current),
                                      "--baseline", str(baseline),
                                      "--threshold", "0.30"])
        assert code == 0
        assert "within threshold" in capsys.readouterr().out

    def test_regression_fails(self, tmp_path, capsys):
        baseline = _write(tmp_path, "base.json", check_regression.normalize(
            _pytest_benchmark_payload({"test_a": 0.100})))
        current = _write(tmp_path, "cur.json",
                         _pytest_benchmark_payload({"test_a": 0.140}))
        code = check_regression.main(["--input", str(current),
                                      "--baseline", str(baseline),
                                      "--threshold", "0.30"])
        assert code == 1
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.out
        assert "regression(s) beyond 30%" in captured.err

    def test_tighter_threshold_catches_smaller_slips(self, tmp_path):
        baseline = _write(tmp_path, "base.json", check_regression.normalize(
            _pytest_benchmark_payload({"test_a": 0.100})))
        current = _write(tmp_path, "cur.json",
                         _pytest_benchmark_payload({"test_a": 0.112}))
        assert check_regression.main(["--input", str(current),
                                      "--baseline", str(baseline),
                                      "--threshold", "0.30"]) == 0
        assert check_regression.main(["--input", str(current),
                                      "--baseline", str(baseline),
                                      "--threshold", "0.10"]) == 1

    def test_new_benchmark_is_informational(self, tmp_path, capsys):
        baseline = _write(tmp_path, "base.json", check_regression.normalize(
            _pytest_benchmark_payload({"test_a": 0.100})))
        current = _write(tmp_path, "cur.json",
                         _pytest_benchmark_payload({"test_a": 0.105,
                                                    "test_new": 9.9}))
        code = check_regression.main(["--input", str(current),
                                      "--baseline", str(baseline)])
        assert code == 0
        assert "not in baseline" in capsys.readouterr().out

    def test_missing_baseline_passes_unless_required(self, tmp_path, capsys):
        current = _write(tmp_path, "cur.json",
                         _pytest_benchmark_payload({"test_a": 0.1}))
        missing = tmp_path / "nope.json"
        assert check_regression.main(["--input", str(current),
                                      "--baseline", str(missing)]) == 0
        assert check_regression.main(["--input", str(current),
                                      "--baseline", str(missing),
                                      "--require-baseline"]) == 2

    def test_output_and_write_baseline(self, tmp_path):
        current = _write(tmp_path, "cur.json",
                         _pytest_benchmark_payload({"test_a": 0.1}))
        out = tmp_path / "BENCH_deadbeef.json"
        new_base = tmp_path / "new_base.json"
        code = check_regression.main(["--input", str(current),
                                      "--output", str(out),
                                      "--sha", "deadbeef",
                                      "--write-baseline", str(new_base)])
        assert code == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["sha"] == "deadbeef"
        assert json.loads(new_base.read_text(encoding="utf-8"))["metrics"] \
            == payload["metrics"]

    def test_unreadable_input_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert check_regression.main(["--input", str(bad)]) == 2

    def test_shared_schema_with_repro_bench_emit_json(self, tmp_path):
        """A repro-bench emit-json file can serve as baseline for itself."""
        payload = {"schema": "repro-bench/1", "source": "repro-bench",
                   "metrics": {"bench/solver:elpc": {"mean_s": 0.2}}}
        baseline = _write(tmp_path, "base.json", payload)
        current = _write(tmp_path, "cur.json", payload)
        assert check_regression.main(["--input", str(current),
                                      "--baseline", str(baseline)]) == 0


class TestCheckedInBaselineCoverage:
    """The committed development-machine baseline must cover every
    perf-critical benchmark the CI ``bench`` job runs, so a fresh runner
    baseline seeded from it gates the same metric set."""

    def test_baseline_covers_all_gated_benchmark_files(self):
        baseline_path = _SCRIPT.parent / "bench_baseline.json"
        baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
        assert baseline["schema"] == check_regression.SCHEMA
        metrics = set(baseline["metrics"])
        for prefix in ("benchmarks/test_bench_vectorized_speedup.py",
                       "benchmarks/test_bench_tensor_batch.py"):
            assert any(name.startswith(prefix) for name in metrics), (
                f"no baseline metric recorded for {prefix}")
