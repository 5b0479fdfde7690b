"""Each workload at a tiny size, untraced and traced, plus the wrappers."""

import json
import os
import subprocess
import sys

import pytest

import repro
from bench import ROOT, child_env
from bench import trace as tracing
from bench.__main__ import append_results, main
from bench.child import MIN_CALLS, run
from bench.workloads import (
    AdaptiveStudy,
    Context,
    PaperStudy,
    PrebuiltAnalysis,
    ServiceMix,
    SweepGrid,
    WORKLOADS,
)

N = 20
TINY = {
    "paper-1k": PaperStudy("paper-1k", n_realizations=N),
    "analysis-1k": PrebuiltAnalysis("analysis-1k", n_realizations=N),
    "sweep-36": SweepGrid("sweep-36", n_realizations=N, warmup_realizations=N),
    "service-mix": ServiceMix("service-mix", n_realizations=N, warmup_realizations=N),
    "tail-adaptive": AdaptiveStudy(
        "tail-adaptive", target_ci=0.5, round_size=50, p_band=(0.0, 1.0)
    ),
}


def test_every_benchmark_workload_has_a_tiny_variant():
    assert set(TINY) == set(WORKLOADS)


def run_tiny(name, tmp_path, trace):
    workload = TINY[name]
    span_dir = None
    if trace:
        span_dir = tmp_path / "spans"
        span_dir.mkdir()
    ctx = Context(work_dir=tmp_path, seed=11, span_dir=span_dir)
    record = run(workload, workload.setup(ctx), ctx, seconds=0.0, trace=trace)
    assert record["correct"], record["checks"]
    assert record["failed"] == 0
    assert len(record["study_digests"]) == MIN_CALLS
    return record


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_end_to_end_metrics(name, tmp_path):
    metrics = run_tiny(name, tmp_path, trace=False)["metrics"]
    assert set(metrics) == {"realizations_per_s", "study_s_p50", "study_s_tail", "peak_rss_mb"}
    assert all(value > 0 for value in metrics.values())


#: Pins itself as a workload child does, starts the service, prints both CPU sets.
PINNED_SERVICE = """
import json, os, sys
from pathlib import Path
from bench.child import pin_to_one_cpu
from bench.workloads import Context, ServiceMix
pin_to_one_cpu()
workload = ServiceMix("service-mix", n_realizations=20, warmup_realizations=20)
state = workload.setup(Context(work_dir=Path(sys.argv[1]), seed=1))
try:
    print(json.dumps([sorted(os.sched_getaffinity(p)) for p in (0, state.process.pid)]))
finally:
    workload.teardown(state)
"""


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="needs sched_getaffinity")
def test_a_workload_child_and_its_service_share_one_cpu(tmp_path):
    completed = subprocess.run(
        [sys.executable, "-c", PINNED_SERVICE, str(tmp_path)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, check=True, timeout=120,
    )
    child_cpus, service_cpus = json.loads(completed.stdout.splitlines()[-1])
    assert len(child_cpus) == 1
    assert service_cpus == child_cpus


def test_outputs_repeat_for_a_seed(tmp_path):
    workload = TINY["paper-1k"]
    state = workload.setup(Context(work_dir=tmp_path, seed=3))
    assert workload.op(state, 5).digest == workload.op(state, 5).digest
    assert workload.op(state, 5).digest != workload.op(state, 6).digest


@pytest.mark.parametrize(
    ("name", "movers"),
    [
        ("paper-1k", ["hazards.realize.calls", "hazards.surge_cells", "runtime.overhead_s"]),
        ("analysis-1k", ["core.stage.interdependency.calls", "core.cells"]),
        ("sweep-36", ["api.run_sweep.calls", "sweep.overhead_s"]),
        (
            "service-mix",
            ["service.exec.calls", "service.journal_append.calls", "service.queue_wait_s",
             "service.http_s", "service.cached_s_p50", "io.ensemble_cache_load.calls"],
        ),
        ("tail-adaptive", ["sampling.rounds", "sampling.weights.calls"]),
    ],
)
def test_traced_run_sees_its_layers(name, movers, tmp_path):
    metrics = run_tiny(name, tmp_path, trace=True)["metrics"]
    for mover in movers:
        assert metrics[mover] > 0, mover
    if name == "paper-1k":
        assert metrics["hazards.realize.calls"] == MIN_CALLS * N
    if name == "sweep-36":
        assert metrics["sweep.generations"] == 3 * MIN_CALLS
    assert metrics["bench.trace_overhead_frac"] > -1.0


def test_traced_run_times_untraced_calls_beside_traced_ones(tmp_path):
    original = repro.run_study
    record = run_tiny("paper-1k", tmp_path, trace=True)
    assert len(record["plain_samples"]) == len(record["samples"]) == MIN_CALLS
    # Only the traced calls leave spans, and the wrappers come off after each.
    assert sum(span[0] == "api.run_study" for span in record["spans"]) == MIN_CALLS
    assert repro.run_study is original


def test_uninstall_restores_every_original():
    originals = {
        target: vars(owner)[attribute]
        for target, _, _ in tracing.WRAPS
        for owner, attribute in [tracing._resolve(target)]
    }
    installation = tracing.install(tracing.Tracer())
    assert repro.run_study is not originals["repro:run_study"]
    assert installation.uninstall() == []
    for target, original in originals.items():
        owner, attribute = tracing._resolve(target)
        assert vars(owner)[attribute] is original


def _record(workload, seed, value, digests):
    return {
        "workload": workload, "seed": seed, "trace": 0, "study_digests": digests,
        "correct": True, "attempted": 20, "failed": 0,
        "metrics": {
            "realizations_per_s": 1000.0 / value, "study_s_p50": value, "study_s_tail": value,
            "peak_rss_mb": 60.0, "setup_s": 0.5,
        },
    }


def _results(tmp_path, label, scale, digest="d", workloads=("paper-1k", "sweep-36"), **change):
    path = tmp_path / f"{label}.json"
    steady = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
    records = [
        _record(workload, seed, value * scale, [digest, digest])
        for workload in workloads
        for seed, value in enumerate(steady)
    ]
    records[-1].update(change)
    append_results(path, records)
    return path


def test_compare_verdicts_and_digests(tmp_path, capsys):
    parent = _results(tmp_path, "parent", 1.0)
    assert main(["compare", str(parent), str(_results(tmp_path, "same", 1.02))]) == 0
    assert main(["compare", str(parent), str(_results(tmp_path, "slow", 1.5))]) == 1
    assert "worse" in capsys.readouterr().out
    assert main(["compare", str(parent), str(_results(tmp_path, "other", 1.0, "e"))]) == 1
    assert "OUTPUT DIGESTS DIFFER" in capsys.readouterr().out
    assert json.loads(parent.read_text())["schema"] == "bench.results/1"


@pytest.mark.parametrize(
    ("change", "message"),
    [
        # A failed check empties the metrics; the digests still match.
        ({"correct": False, "metrics": {}}, "seed 9 in B is not correct"),
        ({"correct": False}, "seed 9 in B is not correct"),
        ({"failed": 1}, "failed operations rose"),
    ],
)
def test_compare_fails_a_run_that_failed(tmp_path, capsys, change, message):
    parent = _results(tmp_path, "parent", 1.0)
    assert main(["compare", str(parent), str(_results(tmp_path, "bad", 1.0, **change))]) == 1
    assert message in capsys.readouterr().out


def test_compare_fails_a_workload_missing_on_one_side(tmp_path, capsys):
    parent = _results(tmp_path, "parent", 1.0)
    partial = _results(tmp_path, "partial", 1.0, workloads=("paper-1k",))
    assert main(["compare", str(parent), str(partial)]) == 1
    assert "sweep-36: no runs in B" in capsys.readouterr().out
    assert main(["compare", str(partial), str(parent)]) == 1
    assert "sweep-36: no runs in A" in capsys.readouterr().out
