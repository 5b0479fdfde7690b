"""``python -m bench``: run the workloads, or compare two sets of runs.

    python -m bench run [--workload NAME ...] [--seed N] [--seconds S]
                        [--trace [0|1]] [--out FILE]
    python -m bench compare A.json B.json

``run`` prints every metric by name with its unit and ends each workload
with one JSON line ``{"correct", "attempted", "failed", "metrics"}``.
It exits non-zero when an output check fails or an operation fails, and
without a result line when the program cannot be run at all.  ``--out``
appends the full run records (digests, samples and, traced, the spans)
to FILE, so repeated runs build a set that ``compare`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from bench import ROOT, WORK_ROOT, child_env, load_spec, stats

DEFAULT_SEED = 20220522
#: Set-up is timed this many times per run, in fresh processes.
SETUP_REPEATS = 3
#: A child that is not set up in this time is killed.
SETUP_TIMEOUT_S = 30.0
#: A workload's children are killed once this much time has passed, so a
#: hung run ends within 180 s.
RUN_BUDGET_S = 170.0
RESULTS_SCHEMA = "bench.results/1"


class ChildFailed(RuntimeError):
    pass


def _forward(stream, ready: queue.Queue) -> None:
    """Relay a child's stdout to stderr, signalling its ready line."""
    from bench.child import READY

    for line in stream:
        if line.strip() == READY:
            ready.put(time.perf_counter())
        else:
            sys.stderr.write(line)
    ready.put(None)


def _run_child(args: list[str], deadline: float) -> float:
    """Run one workload child until ``deadline`` at most; returns its set-up seconds."""
    command = [sys.executable, "-m", "bench.child", *args]
    started = time.perf_counter()
    process = subprocess.Popen(
        command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True
    )
    ready: queue.Queue = queue.Queue()
    relay = threading.Thread(target=_forward, args=(process.stdout, ready), daemon=True)
    relay.start()
    try:
        ready_at = ready.get(timeout=min(SETUP_TIMEOUT_S, max(0.0, deadline - started)))
        if ready_at is None:
            raise ChildFailed(f"workload child exited during set-up ({process.wait()})")
        code = process.wait(timeout=max(0.0, deadline - time.perf_counter()))
    except (queue.Empty, subprocess.TimeoutExpired):
        raise ChildFailed("workload child timed out") from None
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
        relay.join(timeout=5.0)
    if code != 0:
        raise ChildFailed(f"workload child exited {code}")
    return ready_at - started


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up SETUP_REPEATS times (once traced), measure once, return the run record."""
    deadline = time.perf_counter() + RUN_BUDGET_S
    work = WORK_ROOT / f"{os.getpid()}-{name}"
    shutil.rmtree(work, ignore_errors=True)
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
              "--trace", str(int(trace))]
    try:
        setup_s = []
        for i in range(0 if trace else SETUP_REPEATS - 1):
            child_dir = work / f"setup-{i}"
            child_dir.mkdir(parents=True)
            setup_s.append(_run_child(
                [*common, "--work-dir", str(child_dir), "--setup-only"], deadline
            ))
        child_dir = work / "run"
        child_dir.mkdir(parents=True)
        setup_s.append(_run_child([*common, "--work-dir", str(child_dir)], deadline))
        record = json.loads((child_dir / "record.json").read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:  # another run is still using it
            pass
    if not trace and record["metrics"]:
        record["metrics"]["setup_s"] = statistics.median(setup_s)
    record.update(
        workload=name, seed=seed, seconds=seconds, trace=int(trace), setup_samples_s=setup_s
    )
    return record


def result_line(record: dict, definitions: list[dict]) -> dict:
    """The contract's result object, metrics in BENCHMARK.json order."""
    metrics = {}
    if record["metrics"]:
        metrics = {
            d["name"]: {"value": record["metrics"][d["name"]], "unit": d["unit"]}
            for d in definitions
        }
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def report(record: dict, line: dict) -> None:
    print(
        f"{record['workload']}  seed={record['seed']}  trace={record['trace']}  "
        f"attempted={record['attempted']}  failed={record['failed']}  "
        f"correct={str(record['correct']).lower()}"
        + (f"  n={record['n']} (tail = p{record['tail_percentile']})" if "n" in record else "")
    )
    for check in record["checks"]:
        print(f"  CHECK FAILED: {check}")
    for name, metric in line["metrics"].items():
        print(f"  {name:40s} {metric['value']:>14.6g} {metric['unit']}")
    if "self_s" in record:
        print("  self time by span (s):")
        for name, seconds in sorted(record["self_s"].items(), key=lambda kv: -kv[1]):
            if not name.startswith("_"):
                print(f"    {name:38s} {seconds:>14.6f}")


def append_results(path: Path, records: list[dict]) -> None:
    results = {"schema": RESULTS_SCHEMA, "runs": []}
    if path.exists():
        results = json.loads(path.read_text())
    results["runs"].extend(records)
    path.write_text(json.dumps(results) + "\n")


def cmd_run(args: argparse.Namespace) -> int:
    spec = load_spec()
    known = [w["name"] for w in spec["workloads"]]
    names = args.workload or known
    for name in names:
        if name not in known:
            print(f"unknown workload {name!r}; choose from {known}", file=sys.stderr)
            return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    definitions = spec["per_layer"] if args.trace else spec["end_to_end"]
    ok = True
    records = []
    for name in names:
        try:
            record = run_workload(name, args.seed, seconds, bool(args.trace))
            line = result_line(record, definitions)
        except (ChildFailed, KeyError, OSError, ValueError) as exc:
            print(f"{name}: benchmark run failed: {exc!r}", file=sys.stderr)
            return 1
        records.append(record)
        report(record, line)
        print(json.dumps(line), flush=True)
        ok = ok and record["correct"] and record["failed"] == 0
    if args.out is not None:
        append_results(args.out, records)
    return 0 if ok else 1


def _runs(path: Path) -> list[dict]:
    return [r for r in json.loads(path.read_text())["runs"] if not r["trace"]]


def failed_frac(runs: list[dict]) -> float:
    return sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))


def run_problems(workload: str, a: list[dict], b: list[dict]) -> list[str]:
    """Why the runs of one workload cannot pass, whatever their metrics."""
    problems = []
    for label, runs, other in (("A", a, b), ("B", b, a)):
        if other and not runs:
            problems.append(f"{workload}: no runs in {label}")
        problems += [
            f"{workload}: run with seed {r['seed']} in {label} is not correct"
            for r in runs if not r["correct"]
        ]
    if a and b and failed_frac(b) > failed_frac(a):
        problems.append(
            f"{workload}: failed operations rose from {failed_frac(a):.2%} to {failed_frac(b):.2%}"
        )
    return problems


def cmd_compare(args: argparse.Namespace) -> int:
    spec = load_spec()
    parent, change = _runs(args.a), _runs(args.b)
    good = True
    problems = []
    print(f"{'workload':14s} {'metric':20s} {'median A':>11s} {'median B':>11s} "
          f"{'change':>8s} {'spread A':>8s} {'spread B':>8s} {'n':>5s}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        a = [r for r in parent if r["workload"] == workload]
        b = [r for r in change if r["workload"] == workload]
        problems += run_problems(workload, a, b)
        a = [r for r in a if r["metrics"]]
        b = [r for r in b if r["metrics"]]
        if not a or not b:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            va = [r["metrics"][name] for r in a]
            vb = [r["metrics"][name] for r in b]
            verdict = stats.verdict(va, vb, better=metric["better"], bound=metric["bound"])
            good = good and verdict == "ok"
            ma, mb = statistics.median(va), statistics.median(vb)
            print(f"{workload:14s} {name:20s} {ma:>11.5g} {mb:>11.5g} "
                  f"{(mb - ma) / ma:>+8.1%} {stats.relative_spread(va):>8.1%} "
                  f"{stats.relative_spread(vb):>8.1%} {len(va):>2d}/{len(vb):<2d}  {verdict}")
    for problem in problems:
        print(f"FAILED: {problem}")
    digests_a = {(r["workload"], r["seed"]): r["study_digests"] for r in parent}
    digests_b = {(r["workload"], r["seed"]): r["study_digests"] for r in change}
    shared = sorted(set(digests_a) & set(digests_b))
    mismatched = [
        key for key in shared
        if any(x != y for x, y in zip(digests_a[key], digests_b[key]))
    ]
    for workload, seed in mismatched:
        print(f"OUTPUT DIGESTS DIFFER: {workload} seed {seed}")
    print(f"output digests: {len(shared) - len(mismatched)}/{len(shared)} "
          "(workload, seed) pairs identical")
    return 0 if good and not problems and not mismatched and shared else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run workloads and print their metrics")
    run.add_argument("--workload", action="append", help="a workload name (repeatable; default: all)")
    run.add_argument("--seed", type=int, default=DEFAULT_SEED,
                     help="timed call i uses seed + i")
    run.add_argument("--seconds", type=float, help="timed seconds per workload "
                     "(default: run_seconds in BENCHMARK.json)")
    run.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                     help="1: traced run reporting the per-layer metrics")
    run.add_argument("--out", type=Path, help="append the run records to this file")
    compare = commands.add_parser("compare", help="compare two results files (A: parent)")
    compare.add_argument("a", type=Path)
    compare.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    return cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
