"""One workload in one fresh process: set up, warm up, time, check, report.

Started by ``python -m bench run``, never by hand::

    python -m bench.child --workload NAME --seed N --seconds S --trace 0|1 \
        --work-dir DIR [--setup-only]

It prints :data:`READY` on stdout once set-up is done (the parent times
set-up up to that line), then runs the warm-up and the timed loop and
writes its record to ``DIR/record.json``.  ``--setup-only`` stops after
set-up, so the parent can time set-up more than once per run.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from bench import stats, use_checkout_source

READY = "bench-child-ready"
#: Timed calls every run makes, however long they take.
MIN_CALLS = 3
#: A traced run fails when three in four of its traced calls are slower
#: than the untraced calls beside them by more than this share.  Fewer
#: than MIN_OVERHEAD_PAIRS pairs say too little to judge.
MAX_TRACE_OVERHEAD = 0.05
MIN_OVERHEAD_PAIRS = 8
#: Allowed disagreement between traced and manifest generation time.
GENERATE_CROSSCHECK = 0.05
#: A traced run's untraced calls use seeds this far from the traced ones,
#: because a repeated seed can be served from the program's memos (the
#: registered grid-coupled chain keeps every damage pattern's coupling).
PLAIN_SEED_OFFSET = 1_000_000


def pin_to_one_cpu() -> None:
    """Run this process, and every process it starts, on one CPU.

    On a shared host each CPU of a small VM is slowed at its own times.
    A workload whose processes wake each other across CPUs waits on
    whichever is slowest at the moment, so its times spread far wider than
    those of a workload that stays on one CPU.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def primary_seconds(workload, results) -> list[float]:
    return [s.seconds for r in results for s in r.samples if s.kind == workload.primary]


def end_to_end(workload, results) -> tuple[dict, dict]:
    primary = primary_seconds(workload, results)
    tail_s, tail_pct = stats.tail(primary)
    # The median of each timed step's own rate: one slow call moves it
    # no more than it moves the latency median.
    rates = [
        sum(s.realizations for s in r.samples) / sum(s.seconds for s in r.samples)
        for r in results
    ]
    metrics = {
        "realizations_per_s": statistics.median(rates),
        "study_s_p50": statistics.median(primary),
        "study_s_tail": tail_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    return metrics, {"n": len(primary), "tail_percentile": tail_pct}


class Caller:
    """Makes timed calls, keeping their results and counting failures.

    Untraced, each step calls ``op`` once.  Traced, each step calls it
    twice, once with the wrappers installed and once without them on the
    workload's untraced state and a seed :data:`PLAIN_SEED_OFFSET` away,
    alternating which goes first, so the run measures its own tracing
    overhead.
    """

    def __init__(self, workload, state, tracer) -> None:
        self.workload = workload
        self.state = state
        self.tracer = tracer
        self.plain_state = workload.untraced_state(state) if tracer else state
        self.results = []
        #: ``(traced, untraced)`` results of the traced run's steps.
        self.pairs = []
        #: Timed samples of every successful call, and the failed calls.
        self.succeeded = 0
        self.failed = 0
        self.unrestored: list[str] = []

    def _call(self, state, seed: int):
        from bench.workloads import CheckFailed

        try:
            result = self.workload.op(state, seed)
        except CheckFailed:
            raise
        except Exception:
            self.failed += 1
            print(f"operation failed (seed {seed}):", file=sys.stderr)
            traceback.print_exc()
            return None
        self.succeeded += len(result.samples)
        return result

    def _traced(self, fn, *args):
        from bench import trace as tracing

        installation = tracing.install(self.tracer)
        try:
            return fn(*args)
        finally:
            self.unrestored += installation.uninstall()

    def warmup(self) -> None:
        if self.tracer is None:
            self.workload.warmup(self.state)
            return
        self._traced(self.workload.warmup, self.state)
        if self.plain_state is not self.state:
            self.workload.warmup(self.plain_state)

    def step(self, index: int, seed: int) -> None:
        if self.tracer is None:
            result = self._call(self.state, seed)
            if result is not None:
                self.results.append(result)
            return
        plain_seed = seed + PLAIN_SEED_OFFSET
        if index % 2:
            plain = self._call(self.plain_state, plain_seed)
            traced = self._traced(self._call, self.state, seed)
        else:
            traced = self._traced(self._call, self.state, seed)
            plain = self._call(self.plain_state, plain_seed)
        if traced is not None:
            self.results.append(traced)
            if plain is not None:
                self.pairs.append((traced, plain))

    def teardown(self) -> list[str]:
        """Stop what set-up started (both states); returns the checks that failed."""
        from bench.workloads import CheckFailed

        checks = [f"wrapper not restored: {name}" for name in self.unrestored]
        try:
            self.workload.teardown(self.state)
        except CheckFailed as exc:
            checks.append(str(exc))
        return checks


def trace_overhead(workload, pairs) -> tuple[float, float]:
    """``(median, lower quartile)`` of the traced over untraced call seconds, less 1.

    Each ratio compares two calls made one after the other, so a slow
    period of the host moves both.
    """
    ratios = [
        primary_seconds(workload, [traced])[0] / primary_seconds(workload, [plain])[0]
        for traced, plain in pairs
    ]
    q1, median, _ = stats.quartiles(ratios)
    return median - 1.0, q1 - 1.0


def run(workload, state, ctx, seconds: float, trace: bool) -> dict:
    from bench import trace as tracing
    from bench.workloads import CheckFailed

    checks: list[str] = []
    caller = Caller(workload, state, tracing.Tracer() if trace else None)
    try:
        caller.warmup()
        start = time.perf_counter()
        durations: list[float] = []
        while True:
            elapsed = time.perf_counter() - start
            typical = statistics.median(durations) if durations else 0.0
            if len(durations) >= MIN_CALLS and elapsed + typical > seconds:
                break
            began = time.perf_counter()
            caller.step(len(durations), ctx.seed + len(durations))
            durations.append(time.perf_counter() - began)
        end = time.perf_counter()
    except CheckFailed as exc:
        checks.append(str(exc))
    finally:
        checks += caller.teardown()

    results = caller.results
    samples = [s for r in results for s in r.samples]
    record = {
        "correct": not checks,
        "attempted": caller.succeeded + caller.failed,
        "failed": caller.failed,
        "checks": checks,
        "study_digests": [r.digest for r in results],
        "samples": [[s.kind, s.seconds, s.realizations] for s in samples],
    }
    if checks or not samples or (trace and not caller.pairs):
        record["correct"] = False
        record["metrics"] = {}
        return record
    if not trace:
        record["metrics"], detail = end_to_end(workload, results)
        record.update(detail)
        return record

    spans = tracing.window(
        tracing.merge([caller.tracer.export(), *tracing.read_span_files(ctx.span_dir)]),
        start,
        end,
    )
    counts: dict[str, int] = {}
    for result in results:
        for key, value in result.counts.items():
            counts[key] = counts.get(key, 0) + value
    metrics = tracing.layer_metrics(spans, samples=samples, counts=counts)
    overhead, lower = trace_overhead(workload, caller.pairs)
    metrics["bench.trace_overhead_frac"] = overhead
    record["plain_samples"] = [
        [s.kind, s.seconds, s.realizations] for _, plain in caller.pairs for s in plain.samples
    ]
    if len(caller.pairs) >= MIN_OVERHEAD_PAIRS and lower > MAX_TRACE_OVERHEAD:
        checks.append(
            f"traced calls are slower than untraced ones by {overhead:.1%} "
            f"(lower quartile {lower:.1%}), more than {MAX_TRACE_OVERHEAD:.0%}"
        )
    manifest_generate = [r.generate_s for r in results if r.generate_s is not None]
    if manifest_generate:
        traced = sum(
            s.seconds for s in spans if s.name == "hazards.generate" and s.role == "main"
        )
        share = traced / sum(manifest_generate) - 1.0
        if abs(share) > GENERATE_CROSSCHECK:
            checks.append(
                f"traced generate {traced:.3f}s and manifest ensemble.generate "
                f"{sum(manifest_generate):.3f}s differ by {share:+.1%}"
            )
    record["correct"] = not checks
    record["metrics"] = metrics
    record["self_s"] = tracing.self_seconds(spans)
    starts = [s.t0 for s in samples]
    record["spans"] = [
        [s.name, s.t0, s.t1, s.parent, s.pid, s.role, study_index(samples, starts, s.t0)]
        for s in spans
    ]
    return record


def study_index(samples, starts: list[float], t: float) -> int:
    """Which timed call a span started in (-1: between calls)."""
    i = bisect.bisect_right(starts, t) - 1
    return i if i >= 0 and t <= samples[i].t1 else -1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    pin_to_one_cpu()
    use_checkout_source()
    from bench.workloads import WORKLOADS, Context

    workload = WORKLOADS[args.workload]
    span_dir = args.work_dir / "spans" if args.trace else None
    if span_dir is not None:
        span_dir.mkdir(parents=True, exist_ok=True)
    ctx = Context(work_dir=args.work_dir, seed=args.seed, span_dir=span_dir)
    state = workload.setup(ctx)
    print(READY, flush=True)
    if args.setup_only:
        workload.teardown(state)
        return 0
    record = run(workload, state, ctx, args.seconds, bool(args.trace))
    (args.work_dir / "record.json").write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
