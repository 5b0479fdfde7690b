"""The `sweep` subcommand and the flag helper it shares with `run`."""

from __future__ import annotations

import json

import pytest

from repro.cli import _study_config_from_args, build_parser, main


def parse(argv):
    return build_parser().parse_args(argv)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


BASE_ARGS = [
    "sweep",
    "--config",
    "2",
    "--scenario",
    "hurricane",
    "--realizations",
    "30",
]


def test_run_and_sweep_share_config_builder():
    run_args = parse(["run", "--realizations", "30", "--seed", "5", "--config", "2"])
    sweep_args = parse(["sweep", "--realizations", "30", "--seed", "5"])
    run_config = _study_config_from_args(run_args)
    sweep_config = _study_config_from_args(sweep_args, placement="waiau")
    assert run_config.n_realizations == sweep_config.n_realizations == 30
    assert run_config.seed == sweep_config.seed == 5
    assert run_config.cache_key() == sweep_config.cache_key()


def test_sweep_axes_build_expected_grid(capsys):
    code, out, err = run_cli(
        BASE_ARGS + ["--config", "2-2", "--placement", "waiau", "--placement", "kahe"],
        capsys,
    )
    assert code == 0
    assert "4 studies, 1 ensemble group(s), 1 generated, 3 reused" in err
    assert "[4/4]" in out


def test_sweep_compare_and_out(tmp_path, capsys):
    out_path = tmp_path / "sweep.json"
    code, out, err = run_cli(
        BASE_ARGS
        + [
            "--placement",
            "waiau",
            "--placement",
            "kahe",
            "--compare",
            "placement",
            "--out",
            str(out_path),
        ],
        capsys,
    )
    assert code == 0
    assert "Sweep comparison over 'placement'" in out
    assert json.loads(out_path.read_text())["kind"] == "repro.sweep_result"


def test_sweep_table_output(capsys):
    code, out, _ = run_cli(BASE_ARGS + ["--table"], capsys)
    assert code == 0
    header, row = out.strip().splitlines()[:2]
    assert header.startswith("study_hash,")
    assert "hurricane" in row


def test_sweep_dir_and_resume(tmp_path, capsys):
    argv = BASE_ARGS + ["--sweep-dir", str(tmp_path)]
    code, _, _ = run_cli(argv, capsys)
    assert code == 0
    assert (tmp_path / "sweep_manifest.json").exists()
    code, _, err = run_cli(argv + ["--resume"], capsys)
    assert code == 0
    assert "1 resumed" in err


def test_sweep_resume_without_dir_errors(capsys):
    code, _, err = run_cli(BASE_ARGS + ["--resume"], capsys)
    assert code == 2
    assert "sweep_dir" in err


def test_sweep_manifest_out(tmp_path, capsys):
    path = tmp_path / "manifest.json"
    code, _, _ = run_cli(BASE_ARGS + ["--sweep-manifest-out", str(path)], capsys)
    assert code == 0
    assert json.loads(path.read_text())["kind"] == "repro.sweep_manifest"
