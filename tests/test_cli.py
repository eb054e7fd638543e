"""Tests for the command-line entry points."""

import json

import pytest

from repro.cli import (
    main,
    main_bench,
    main_bench_batch,
    main_bench_scaling,
    main_map,
)


class TestReproMap:
    def test_list_algorithms(self, capsys):
        assert main_map(["--list-algorithms"]) == 0
        out = capsys.readouterr().out
        assert "elpc" in out and "greedy" in out

    def test_map_builtin_case_delay(self, capsys):
        assert main_map(["--case", "1", "--algorithm", "elpc",
                         "--objective", "delay"]) == 0
        out = capsys.readouterr().out
        assert "selected path" in out
        assert "end-to-end delay" in out

    def test_map_builtin_case_framerate(self, capsys):
        assert main_map(["--case", "2", "--algorithm", "greedy",
                         "--objective", "framerate"]) == 0
        out = capsys.readouterr().out
        assert "frame" in out

    def test_map_workload_on_random_network(self, capsys):
        assert main_map(["--workload", "surveillance", "--nodes", "15",
                         "--links", "40", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "node" in out

    def test_map_saved_instance(self, tmp_path, capsys):
        from repro.generators import make_case, PAPER_CASE_SPECS
        from repro.model import save_instance
        path = save_instance(make_case(PAPER_CASE_SPECS[0]), tmp_path / "inst.json")
        assert main_map(["--instance", str(path)]) == 0
        assert "selected path" in capsys.readouterr().out

    def test_error_when_no_input_selected(self, capsys):
        assert main_map([]) == 1
        assert "error" in capsys.readouterr().err

    def test_error_when_multiple_inputs_selected(self, capsys):
        assert main_map(["--case", "1", "--workload", "tsi"]) == 1
        assert "error" in capsys.readouterr().err

    def test_error_on_bad_case_number(self, capsys):
        assert main_map(["--case", "99"]) == 1
        assert "error" in capsys.readouterr().err

    def test_error_on_unknown_algorithm(self, capsys):
        assert main_map(["--case", "1", "--algorithm", "nope"]) == 1
        assert "error" in capsys.readouterr().err


class TestReproBench:
    def test_writes_artifacts(self, tmp_path, capsys):
        assert main_bench(["--output", str(tmp_path / "out"), "--max-cases", "2"]) == 0
        out = capsys.readouterr().out
        assert "fig2" in out
        assert (tmp_path / "out" / "fig2_table.txt").exists()
        assert (tmp_path / "out" / "fig5_delay_curves.csv").exists()

    def test_print_table_option(self, tmp_path, capsys):
        assert main_bench(["--output", str(tmp_path), "--max-cases", "2",
                           "--print-table"]) == 0
        out = capsys.readouterr().out
        assert "Mapping performance comparison" in out

    def test_engine_agreement_reported(self, tmp_path, capsys):
        assert main_bench(["--output", str(tmp_path), "--max-cases", "2"]) == 0
        out = capsys.readouterr().out
        assert "engine agreement" in out
        assert "elpc-tensor" in out

    def test_emit_json_schema(self, tmp_path, capsys):
        json_path = tmp_path / "bench.json"
        assert main_bench(["--output", str(tmp_path / "out"), "--max-cases",
                           "2", "--emit-json", str(json_path)]) == 0
        payload = json.loads(json_path.read_text(encoding="utf-8"))
        assert payload["schema"] == "repro-bench/1"
        assert payload["agreement"]["ok"] is True
        assert payload["agreement"]["cases"] == 2
        assert any(name.startswith("bench/solver:")
                   for name in payload["metrics"])

    def test_skip_agreement(self, tmp_path, capsys):
        json_path = tmp_path / "bench.json"
        assert main_bench(["--output", str(tmp_path / "out"), "--max-cases",
                           "1", "--skip-agreement",
                           "--emit-json", str(json_path)]) == 0
        payload = json.loads(json_path.read_text(encoding="utf-8"))
        assert "agreement" not in payload
        assert "engine agreement" not in capsys.readouterr().out

    def test_disagreement_exits_nonzero(self, tmp_path, capsys):
        """A diverging solver registered under an engine name must fail bench."""
        from repro.core import Objective, get_solver, register_solver

        original = get_solver("elpc-tensor", Objective.MIN_DELAY)
        greedy = get_solver("greedy", Objective.MIN_DELAY)
        register_solver("elpc-tensor", Objective.MIN_DELAY, greedy,
                        overwrite=True)
        try:
            json_path = tmp_path / "bench.json"
            code = main_bench(["--output", str(tmp_path / "out"),
                               "--max-cases", "3",
                               "--emit-json", str(json_path)])
            assert code == 3
            err = capsys.readouterr().err
            assert "disagree" in err
            payload = json.loads(json_path.read_text(encoding="utf-8"))
            assert payload["agreement"]["ok"] is False
            assert payload["agreement"]["disagreements"]
        finally:
            register_solver("elpc-tensor", Objective.MIN_DELAY, original,
                            overwrite=True)


class TestBenchBatch:
    def test_prints_speedup_table(self, capsys):
        assert main_bench_batch(["--batch-sizes", "2,4", "--modules", "6",
                                 "--nodes", "10", "--links", "24"]) == 0
        out = capsys.readouterr().out
        assert "Tensor batch engine speedup" in out
        assert out.count("\n") >= 5  # title + header + rule + one row per size

    def test_rejects_bad_batch_sizes(self, capsys):
        assert main_bench_batch(["--batch-sizes", "a,b"]) == 1
        assert "error" in capsys.readouterr().err
        assert main_bench_batch(["--batch-sizes", "0"]) == 1
        assert "error" in capsys.readouterr().err

    def test_via_umbrella(self, capsys):
        assert main(["bench-batch", "--batch-sizes", "2", "--modules", "5",
                     "--nodes", "8", "--links", "16"]) == 0
        assert "tensor" in capsys.readouterr().out


class TestReproUmbrella:
    def test_no_args_prints_usage(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "solve" in out and "bench-scaling" in out

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
        assert "unknown command" in capsys.readouterr().err

    def test_solve_with_vectorized_solver(self, capsys):
        assert main(["solve", "--solver", "elpc-tensor", "--objective",
                     "framerate", "--case", "1"]) == 0
        out = capsys.readouterr().out
        assert "elpc-tensor" in out
        assert "selected path" in out

    def test_solve_with_tensor_solver(self, capsys):
        assert main(["solve", "--solver", "elpc-tensor", "--case", "1"]) == 0
        out = capsys.readouterr().out
        assert "elpc-tensor" in out
        assert "selected path" in out

    @pytest.mark.parametrize("command", ["solve", "bench", "bench-batch",
                                         "serve"])
    def test_backend_flag_is_an_argparse_error(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--backend", "numpy"])
        assert excinfo.value.code == 2
        assert "--backend" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["serve", "bench"])
    def test_workers_flag_is_an_argparse_error(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--workers", "2"])
        assert excinfo.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_repro_backend_env_changes_no_output(self, capsys, monkeypatch):
        argv = ["solve", "--solver", "elpc-tensor", "--case", "1"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        monkeypatch.setenv("REPRO_BACKEND", "cupy")
        assert main(argv) == 0
        assert capsys.readouterr().out == plain

    def test_solve_lists_vectorized_and_tensor_solvers(self, capsys):
        assert main(["solve", "--list-algorithms"]) == 0
        out = capsys.readouterr().out
        assert "elpc-vec" not in out
        assert "elpc-tensor" in out

    def test_map_alias(self, capsys):
        assert main(["map", "--case", "1"]) == 0
        assert "selected path" in capsys.readouterr().out

    def test_bench_subcommand(self, tmp_path, capsys):
        assert main(["bench", "--output", str(tmp_path / "out"),
                     "--max-cases", "1"]) == 0
        assert (tmp_path / "out" / "fig2_table.txt").exists()


class TestBatchSolve:
    def test_batch_seeds_summary(self, capsys):
        assert main(["solve", "--solver", "elpc-tensor", "--workload",
                     "surveillance", "--nodes", "10", "--links", "24",
                     "--batch-seeds", "3"]) == 0
        out = capsys.readouterr().out
        assert "batch: 3 instances" in out
        assert "solved 3/3" in out
        assert "surveillance-seed2" in out

    def test_batch_seeds_requires_workload(self, capsys):
        assert main_map(["--case", "1", "--batch-seeds", "2"]) == 1
        assert "needs --workload" in capsys.readouterr().err

    def test_batch_seeds_must_be_positive(self, capsys):
        assert main_map(["--workload", "surveillance", "--batch-seeds", "0"]) == 1
        assert "error" in capsys.readouterr().err


class TestBenchScaling:
    def test_prints_speedup_table(self, capsys):
        assert main_bench_scaling(["--sizes", "4:8:14,5:10:20",
                                   "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "delay elpc" in out and "delay tensor" in out
        assert out.count("\n") >= 4  # header + rule + one row per size

    def test_rejects_malformed_sizes(self, capsys):
        assert main_bench_scaling(["--sizes", "4x8x14"]) == 1
        assert "error" in capsys.readouterr().err
        assert main_bench_scaling(["--sizes", "a:b:c"]) == 1
        assert "error" in capsys.readouterr().err

    def test_via_umbrella(self, capsys):
        assert main(["bench-scaling", "--sizes", "4:8:14"]) == 0
        assert "elpc-tensor speedup" in capsys.readouterr().out


class TestReproPlace:
    def test_default_run_exits_0(self, capsys):
        assert main(["place", "--placer", "place-greedy"]) == 0
        out = capsys.readouterr().out
        assert "admitted" in out and "ledger validated clean" in out
        assert "status" in out  # the per-request table header

    def test_flow_placer(self, capsys):
        assert main(["place", "--placer", "place-flow", "--count", "6",
                     "--nodes", "14", "--links", "36"]) == 0
        assert "placer=place-flow" in capsys.readouterr().out

    def test_oversubscribed_run_reports_rejections(self, capsys):
        assert main(["place", "--count", "10", "--capacity-factor", "0.05",
                     "--demand-fps", "4"]) == 0
        out = capsys.readouterr().out
        assert "rejected" in out

    def test_json_summary(self, capsys):
        assert main(["place", "--count", "4", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["placer"] == "place-greedy"
        assert payload["n_requests"] == 4
        assert payload["n_admitted"] + payload["n_rejected"] == 4
        assert "validated_utilization" in payload

    def test_framerate_objective(self, capsys):
        assert main(["place", "--count", "4", "--objective",
                     "framerate"]) == 0
        assert "objective=max_frame_rate" in capsys.readouterr().out

    def test_list_placers(self, capsys):
        assert main(["place", "--list-placers"]) == 0
        out = capsys.readouterr().out
        assert "place-greedy" in out and "place-flow" in out

    def test_unknown_placer_exits_1(self, capsys):
        assert main(["place", "--placer", "place-magic"]) == 1
        assert "unknown placer" in capsys.readouterr().err

    def test_unknown_engine_exits_1(self, capsys):
        assert main(["place", "--engine", "frobnicator"]) == 1
        assert "error" in capsys.readouterr().err

    def test_umbrella_help_lists_place(self, capsys):
        assert main([]) == 0
        assert "place" in capsys.readouterr().out


class TestServeAdmissionFlags:
    def test_flags_parse_into_config(self):
        from repro.cli import _build_serve_parser

        args = _build_serve_parser().parse_args(
            ["--admission-control", "--admission-capacity-factor", "0.5",
             "--admission-demand-fps", "2.5"])
        assert args.admission_control is True
        assert args.admission_capacity_factor == 0.5
        assert args.admission_demand_fps == 2.5

    def test_flags_default_off(self):
        from repro.cli import _build_serve_parser

        args = _build_serve_parser().parse_args([])
        assert args.admission_control is False
        assert args.admission_capacity_factor == 1.0

    def test_negative_factor_exits_1(self, capsys):
        from repro.cli import main_serve

        assert main_serve(["--admission-capacity-factor", "-2"]) == 1
        assert "admission_capacity_factor" in capsys.readouterr().err
