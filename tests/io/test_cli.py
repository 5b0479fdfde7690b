"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.io.realization_io import load_ensemble_csv


class TestEnsembleCommand:
    def test_generates_csv(self, tmp_path, capsys):
        out = tmp_path / "ens.csv"
        code = main(["ensemble", "--count", "10", "--seed", "3", "--output", str(out)])
        assert code == 0
        assert out.exists()
        assert len(load_ensemble_csv(out)) == 10
        assert "flood probability" in capsys.readouterr().out


class TestAnalyzeCommand:
    @pytest.fixture(scope="class")
    def small_csv(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli") / "small.csv"
        main(["ensemble", "--count", "40", "--seed", "2", "--output", str(path)])
        return str(path)

    def test_tables(self, small_csv, capsys):
        code = main(["run", "--ensemble", small_csv])
        assert code == 0
        out = capsys.readouterr().out
        assert "Scenario: hurricane" in out
        assert "6+6+6" in out

    def test_csv_output(self, small_csv, capsys):
        code = main(["run", "--ensemble", small_csv, "--csv"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("placement,scenario,architecture")

    def test_filtered_configs_and_scenarios(self, small_csv, capsys):
        code = main(
            [
                "run",
                "--ensemble", small_csv,
                "--config", "6+6+6",
                "--scenario", "hurricane+isolation",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "6+6+6" in out
        assert "Scenario: hurricane+isolation" in out
        assert "Scenario: hurricane\n" not in out

    def test_unknown_config_is_an_error(self, small_csv, capsys):
        code = main(["run", "--ensemble", small_csv, "--config", "9"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_kahe_placement(self, small_csv, capsys):
        code = main(["run", "--ensemble", small_csv, "--placement", "kahe"])
        assert code == 0
        assert "Kahe Control Center" in capsys.readouterr().out

    def test_figures(self, small_csv, capsys):
        code = main(["figures", "--ensemble", small_csv])
        assert code == 0
        out = capsys.readouterr().out
        for figure in ("Figure 6", "Figure 7", "Figure 8", "Figure 9", "Figure 10", "Figure 11"):
            assert figure in out
        assert "legend:" in out

    def test_siting(self, small_csv, capsys):
        code = main(["siting", "--ensemble", small_csv])
        assert code == 0
        out = capsys.readouterr().out
        assert "Backup ranking" in out
        assert "Kahe Control Center" in out


class TestRunCommand:
    @pytest.fixture(scope="class")
    def small_csv(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli-run") / "small.csv"
        main(["ensemble", "--count", "40", "--seed", "2", "--output", str(path)])
        return str(path)

    def test_tables(self, small_csv, capsys):
        code = main(["run", "--ensemble", small_csv])
        assert code == 0
        captured = capsys.readouterr()
        assert "Scenario: hurricane" in captured.out
        assert "6+6+6" in captured.out
        assert "deprecated" not in captured.err

    def test_csv_output(self, small_csv, capsys):
        code = main(["run", "--ensemble", small_csv, "--csv"])
        assert code == 0
        assert capsys.readouterr().out.startswith("placement,scenario,architecture")

    def test_telemetry_outputs(self, small_csv, tmp_path, capsys):
        manifest_path = tmp_path / "run_manifest.json"
        metrics_path = tmp_path / "metrics.json"
        trace_path = tmp_path / "trace.json"
        code = main(
            [
                "run",
                "--ensemble", small_csv,
                "--manifest-out", str(manifest_path),
                "--metrics-out", str(metrics_path),
                "--trace-out", str(trace_path),
                "--run-report",
            ]
        )
        assert code == 0
        manifest = json.loads(manifest_path.read_text())
        assert manifest["kind"] == "repro.run_manifest"
        assert "pipeline.stage.fragility" in manifest["stages"]
        assert manifest["chain"]["name"] == "paper"
        metrics = json.loads(metrics_path.read_text())
        assert metrics["counters"]["pipeline.realizations"] > 0
        trace = json.loads(trace_path.read_text())
        assert trace["spans"][0]["name"] == "run_study"
        assert "Run report" in capsys.readouterr().out

    def test_failed_manifest_write_warns_but_run_succeeds(
        self, small_csv, tmp_path, capsys
    ):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where a directory is needed")
        with pytest.warns(Warning, match="run manifest"):
            code = main(
                [
                    "run",
                    "--ensemble", small_csv,
                    "--manifest-out", str(blocker / "run_manifest.json"),
                ]
            )
        assert code == 0  # the analysis still completed and printed
        assert "Scenario: hurricane" in capsys.readouterr().out

    def test_no_observability_still_analyzes(self, small_csv, capsys):
        code = main(["run", "--ensemble", small_csv, "--no-observability"])
        assert code == 0
        assert "Scenario: hurricane" in capsys.readouterr().out

    def test_unknown_config_is_an_error(self, small_csv, capsys):
        code = main(["run", "--ensemble", small_csv, "--config", "9"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestChainFlag:
    @pytest.fixture(scope="class")
    def small_csv(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("chain") / "small.csv"
        main(["ensemble", "--count", "40", "--seed", "2", "--output", str(path)])
        return str(path)

    def test_run_with_grid_coupled_chain(self, small_csv, tmp_path, capsys):
        manifest_path = tmp_path / "run_manifest.json"
        code = main(
            [
                "run",
                "--ensemble", small_csv,
                "--chain", "grid-coupled",
                "--manifest-out", str(manifest_path),
            ]
        )
        assert code == 0
        assert "Scenario: hurricane" in capsys.readouterr().out
        manifest = json.loads(manifest_path.read_text())
        assert manifest["chain"]["name"] == "grid-coupled"
        for name in ("fragility", "interdependency", "cyberattack"):
            assert f"pipeline.stage.{name}" in manifest["stages"]

    def test_unknown_chain_is_an_error(self, small_csv, capsys):
        code = main(["run", "--ensemble", small_csv, "--chain", "nope"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "grid-coupled" in err  # the message lists registered names

    def test_sweep_chain_axis(self, small_csv, capsys):
        code = main(
            [
                "sweep",
                "--ensemble", small_csv,
                "--config", "2",
                "--scenario", "hurricane+isolation",
                "--chain", "paper",
                "--chain", "grid-coupled",
                "--compare", "chain",
            ]
        )
        assert code == 0
        out, err = capsys.readouterr()
        assert "2 studies, 1 ensemble group(s)" in err
        assert "chain" in out


class TestFacadeBackedSubcommands:
    """timeline / earthquake / grid-impact share run's config plumbing."""

    @pytest.fixture(scope="class")
    def small_csv(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("facade") / "small.csv"
        main(["ensemble", "--count", "40", "--seed", "2", "--output", str(path)])
        return str(path)

    def test_timeline_reports_downtime(self, small_csv, tmp_path, capsys):
        manifest_path = tmp_path / "timeline_manifest.json"
        code = main(
            [
                "timeline",
                "--ensemble", small_csv,
                "--realizations", "40",
                "--config", "2",
                "--manifest-out", str(manifest_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Downtime per compound event" in out
        # Satellite: the shared telemetry flags now work here too.
        manifest = json.loads(manifest_path.read_text())
        assert "timeline.rollout" in manifest["stages"]
        assert manifest["chain"] is None  # the rollout has no chain

    def test_earthquake_runs_the_earthquake_chain(self, tmp_path, capsys):
        manifest_path = tmp_path / "eq_manifest.json"
        code = main(
            [
                "earthquake",
                "--realizations", "50",
                "--config", "2",
                "--scenario", "hurricane",
                "--manifest-out", str(manifest_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Earthquake compound-threat analysis" in out
        manifest = json.loads(manifest_path.read_text())
        assert manifest["chain"]["name"] == "earthquake"


class TestTopLevelErrorHandler:
    """Any ReproError exits 2 with one `error:` line, never a traceback."""

    def test_configuration_error_is_one_line_exit_2(self, capsys):
        code = main(["run", "--realizations", "0"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1  # exactly one line, no traceback
        assert "n_realizations" in err

    def test_serialization_error_is_one_line_exit_2(self, tmp_path, capsys):
        garbage = tmp_path / "not_an_ensemble.csv"
        garbage.write_text("this,is,not\nan,ensemble,file\n")
        code = main(["run", "--ensemble", str(garbage)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1
        assert "ensemble" in err

    def test_missing_ensemble_file_is_one_line_exit_2(self, tmp_path, capsys):
        code = main(["run", "--ensemble", str(tmp_path / "nope.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "no such ensemble file" in err


class TestSweepRobustnessFlags:
    @pytest.fixture(scope="class")
    def small_csv(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli-sweep") / "small.csv"
        main(["ensemble", "--count", "40", "--seed", "2", "--output", str(path)])
        return str(path)

    def test_exhausted_budget_without_keep_going_exits_2(
        self, small_csv, capsys
    ):
        code = main(
            [
                "sweep",
                "--ensemble", small_csv,
                "--config", "2",
                "--scenario", "hurricane",
                "--scenario", "hurricane+isolation",
                "--sweep-budget", "1e-9",
            ]
        )
        assert code == 2  # strict mode: SweepBudgetError -> ReproError exit
        assert "budget" in capsys.readouterr().err

    def test_keep_going_lists_failures_and_exits_1(self, small_csv, capsys):
        code = main(
            [
                "sweep",
                "--ensemble", small_csv,
                "--config", "2",
                "--scenario", "hurricane",
                "--scenario", "hurricane+isolation",
                "--sweep-budget", "1e-9",
                "--keep-going",
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "FAILED" in err
        assert "SweepBudgetError" in err


class TestSimulationCommands:
    def test_bft_demo(self, capsys):
        code = main(
            ["bft-demo", "--requests", "10", "--flood-site", "control-center-1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "safety preserved:     True" in out

    def test_grid_impact(self, capsys):
        code = main(["grid-impact", "--realizations", "30", "--seed", "7"])
        assert code == 0
        out = capsys.readouterr().out
        assert "N-1 contingency" in out
        assert "average" in out
        # The coupled ensemble study rides along after the N-1 table.
        assert "Scenario: hurricane" in out

    def test_grid_impact_no_study(self, capsys):
        code = main(["grid-impact", "--no-study"])
        assert code == 0
        out = capsys.readouterr().out
        assert "N-1 contingency" in out
        assert "Scenario:" not in out
