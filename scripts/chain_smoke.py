"""Chain smoke check: the ``grid-coupled`` preset end to end via the CLI.

Drives ``repro run --chain grid-coupled`` on a small generated ensemble
and asserts the run manifest records the resolved chain spec and one
``pipeline.stage.<name>`` span per stage -- the contract the threat-chain
refactor added on top of :func:`repro.run_study` -- and that the grid
coupling's study memo both missed and hit (the matrix cells share one
ensemble under threshold fragility, so later cells hit), with the split
printed in the run report.  Exits non-zero on any violation.  Run from
the repo root::

    PYTHONPATH=src python scripts/chain_smoke.py [--realizations 60] [--output manifest.json]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import tempfile
from pathlib import Path

from repro.cli import main as cli_main

EXPECTED_STAGES = ["fragility", "interdependency", "cyberattack", "classification"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--realizations", type=int, default=60)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--output", default="chain_smoke_manifest.json")
    args = parser.parse_args(argv)

    manifest_path = Path(args.output)
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = Path(tmp) / "ensemble.csv"
        code = cli_main(
            [
                "ensemble",
                "--count", str(args.realizations),
                "--seed", str(args.seed),
                "--output", str(csv_path),
            ]
        )
        if code != 0:
            raise SystemExit(f"ensemble generation failed with exit code {code}")
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli_main(
                [
                    "run",
                    "--ensemble", str(csv_path),
                    "--chain", "grid-coupled",
                    "--manifest-out", str(manifest_path),
                    "--run-report",
                ]
            )
        report = stdout.getvalue()
        print(report, end="")
        if code != 0:
            raise SystemExit(f"run --chain grid-coupled failed with exit code {code}")

    manifest = json.loads(manifest_path.read_text())
    chain = manifest.get("chain")
    if not chain or chain.get("name") != "grid-coupled":
        raise SystemExit(f"manifest chain spec is wrong: {chain!r}")
    stage_names = [s["name"] for s in chain["stages"]]
    if stage_names != EXPECTED_STAGES:
        raise SystemExit(f"unexpected chain stages: {stage_names}")
    missing = [
        name
        for name in EXPECTED_STAGES
        if f"pipeline.stage.{name}" not in manifest["stages"]
    ]
    if missing:
        raise SystemExit(f"missing per-stage spans for: {missing}")
    if manifest["metrics"]["counters"].get("pipeline.realizations", 0) <= 0:
        raise SystemExit("pipeline.realizations counter was not populated")
    for decision in ("miss", "hit"):
        count = manifest["metrics"]["counters"].get(f"pipeline.coupling_cache.{decision}", 0)
        if count <= 0:
            raise SystemExit(f"pipeline.coupling_cache.{decision} is {count}, expected > 0")
    if "Coupling memo: " not in report:
        raise SystemExit("the run report does not show the coupling memo hit/miss split")
    print(
        f"chain smoke OK: {chain['name']} "
        f"({' -> '.join(stage_names)}), manifest at {manifest_path}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
