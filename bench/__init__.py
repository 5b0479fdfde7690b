"""The repository's benchmark: named workloads through the public entry points.

Run ``python -m bench run --seed 20220522`` from the root of a checkout;
``bench/README.md`` describes the workloads, the metrics and how to read
them.  The benchmark imports the program from the checkout's ``src/``
and refuses to run against any other copy.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC_FILE = ROOT / "BENCHMARK.json"
#: Scratch space for one run's children (service state, span files).
WORK_ROOT = ROOT / ".bench_work"


class SourceMissing(RuntimeError):
    """The checkout holds no importable program under ``src/``."""


def use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SourceMissing(f"no program to benchmark: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SourceMissing(f"repro imported from {repro.__file__}, not {SRC}")


def child_env() -> dict[str, str]:
    """Environment for benchmark child processes: this checkout first."""
    env = dict(os.environ)
    paths = [str(SRC), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def load_spec() -> dict:
    """``BENCHMARK.json``: the metric names, units, directions and bounds."""
    return json.loads(SPEC_FILE.read_text())
