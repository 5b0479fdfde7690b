"""Per-layer tracing from the benchmark's own files.

:func:`install` replaces each public function named in :data:`WRAPS`
with a wrapper that records a span (name, start, end, parent, extra) in a
:class:`Tracer`, patching the attribute where callers look it up, so the
program under test is not edited.  :meth:`Installation.uninstall` puts
every original object back and reports any attribute that does not read
back as the original.

Spans live in memory.  The service launcher writes the server's spans to
``spans-server-<pid>.json`` in the span directory after it drains.
Timestamps are ``time.perf_counter()``, the system-wide monotonic clock
on Linux, so spans from both processes share one timeline and
:func:`layer_metrics` attributes them to the timed window by time.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import itertools
import json
import os
import statistics
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

SCALAR = "scalar"


def _surge_cells(args, kwargs, result) -> int:
    """Timesteps x mesh nodes the surge kernel evaluated (exact)."""
    model, track = args[0], args[1]
    return len(track.times(model.params.time_step_h)) * len(model.mesh)


def _controller_retries(args, kwargs, result) -> int:
    return sum(args[0].retries_by_index.values())


def _submitted_job(args, kwargs, result) -> str:
    return args[1].job_id


def _taken_job(args, kwargs, result) -> str | None:
    return None if result is None else result.job_id


def _scalar(args, kwargs, result) -> str:
    return SCALAR


_STAGES = (
    ("HazardImpactStage", "fragility"),
    ("InterdependencyStage", "interdependency"),
    ("CyberAttackStage", "cyberattack"),
    ("ClassificationStage", "classification"),
)

#: (``module:Owner.attribute`` or ``module:function``, span name, extra).
#: Names starting with ``_`` are bookkeeping spans, never busy time.
WRAPS: tuple[tuple[str, str, Callable | None], ...] = (
    ("repro.hazards.hurricane.ensemble:EnsembleGenerator.generate", "hazards.generate", None),
    ("repro.hazards.hurricane.ensemble:EnsembleGenerator.sample_all_parameters", "hazards.parameter_pass", None),
    ("repro.sampling.generation:PlanSampledGenerator.sample_all_parameters", "hazards.parameter_pass", None),
    ("repro.hazards.hurricane.ensemble:EnsembleGenerator.realize", "hazards.realize", None),
    ("repro.hazards.hurricane.ensemble:StormParameters.to_track", "hazards.track", None),
    ("repro.hazards.hurricane.surge:SurgeModel.run", "hazards.surge", _surge_cells),
    ("repro.hazards.hurricane.inundation:InundationMapper.depths_from_wse", "hazards.inundation", None),
    ("repro.runtime.controller:RunController.run", "runtime.run", _controller_retries),
    ("repro.io.ensemble_cache:load_ensemble_cache", "io.ensemble_cache_load", None),
    ("repro.io.ensemble_cache:save_ensemble_cache", "io.ensemble_cache_store", None),
    ("repro.core.pipeline:CompoundThreatAnalysis.run_matrix", "core.run_matrix", None),
    ("repro.core.pipeline:CompoundThreatAnalysis.run", "core.cell", None),
    *(
        (f"repro.core.chain:{owner}.{method}", f"core.stage.{stage}", extra)
        for owner, stage in _STAGES
        for method, extra in (("apply_batch", None), ("apply", _scalar))
    ),
    ("repro.sampling.plans:SamplingPlan.weights_for", "sampling.weights", None),
    ("repro.service.server:StudyService.submit", "service.submit", None),
    ("repro.service.server:run_study", "service.exec", None),
    ("repro.service.store:ResultStore.put", "service.store_put", None),
    ("repro.service.store:ResultStore.get", "service.store_get", None),
    ("repro.service.jobs:JobJournal.append", "service.journal_append", None),
    ("repro.service.jobs:JobQueue.submit", "_queue.submit", _submitted_job),
    ("repro.service.jobs:JobQueue.take", "_queue.take", _taken_job),
    ("repro:run_study", "api.run_study", None),
    ("repro:run_sweep", "api.run_sweep", None),
)

#: Span names reported as ``<name>.calls`` and ``<name>.busy_s``.
CALL_METRICS = tuple(
    dict.fromkeys(
        name for _, name, _ in WRAPS if not name.startswith("_") and name != "core.cell"
    )
)


class Tracer:
    """Spans of one process: ``(id, name, start, end, parent id, extra)`` tuples.

    Each thread keeps its own stack of open span ids, so a span's parent
    is the innermost traced call of the same thread.  A finished span is
    appended whole (``list.append`` is atomic), so threads need no lock.
    Tuples of plain values drop out of the garbage collector's lists, so
    the spans a long run collects add nothing to its collections.
    """

    def __init__(self, span_dir: Path | None = None, role: str = "main") -> None:
        self.span_dir = span_dir
        self.role = role
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def wrap(self, fn: Callable, name: str, extra: Callable | None) -> Callable:
        perf = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer.stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = perf()
                stack.pop()
                tracer.spans.append((span_id, name, t0, t1, parent, None))
                raise
            t1 = perf()
            stack.pop()
            tracer.spans.append(
                (span_id, name, t0, t1, parent,
                 None if extra is None else extra(args, kwargs, result))
            )
            return result

        return functools.update_wrapper(traced, fn)

    def export(self) -> dict:
        """This process's spans with parents as list indices (-1: none)."""
        spans = list(self.spans)
        index = {span[0]: i for i, span in enumerate(spans)}
        return {
            "pid": os.getpid(),
            "role": self.role,
            "spans": [
                [name, t0, t1, index.get(parent, -1), extra]
                for _, name, t0, t1, parent, extra in spans
            ],
        }

    def flush(self) -> None:
        """Write this process's spans into the span directory."""
        target = self.span_dir / f"spans-{self.role}-{os.getpid()}.json"
        partial = target.with_suffix(".part")
        partial.write_text(json.dumps(self.export()))
        os.replace(partial, target)


def _resolve(target: str) -> tuple[object, str]:
    module_name, _, path = target.partition(":")
    owner: object = importlib.import_module(module_name)
    *owners, attribute = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    return owner, attribute


@dataclass
class Installation:
    """The patched attributes and the originals they replaced."""

    patches: list[tuple[object, str, object]]

    def uninstall(self) -> list[str]:
        """Restore every original; returns the attributes that did not."""
        broken = []
        for owner, attribute, original in reversed(self.patches):
            setattr(owner, attribute, original)
            if vars(owner).get(attribute) is not original:
                broken.append(f"{getattr(owner, '__name__', owner)}.{attribute}")
        self.patches = []
        return broken


def install(tracer: Tracer) -> Installation:
    """Wrap every :data:`WRAPS` target where it is looked up."""
    patches = []
    for target, name, extra in WRAPS:
        owner, attribute = _resolve(target)
        original = vars(owner)[attribute]
        setattr(owner, attribute, tracer.wrap(original, name, extra))
        patches.append((owner, attribute, original))
    return Installation(patches)


# ----------------------------------------------------------------------
# Reading spans back and turning them into per-layer metrics
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Span:
    name: str
    t0: float
    t1: float
    parent: int  # index into the merged list, -1 for none
    pid: int
    role: str
    extra: object

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0


def merge(exports: Iterable[dict]) -> list[Span]:
    """One span list from per-process exports."""
    spans: list[Span] = []
    for export in exports:
        base = len(spans)
        for name, t0, t1, parent, extra in export["spans"]:
            spans.append(
                Span(name, t0, t1, -1 if parent < 0 else base + parent,
                     export["pid"], export["role"], extra)
            )
    return spans


def read_span_files(span_dir: Path) -> list[dict]:
    return [json.loads(path.read_text()) for path in sorted(span_dir.glob("spans-*.json"))]


def window(spans: list[Span], start: float, end: float) -> list[Span]:
    """The spans lying inside ``[start, end]``, with parents re-indexed."""
    keep = [i for i, s in enumerate(spans) if s.t0 >= start and s.t1 <= end]
    position = {old: new for new, old in enumerate(keep)}
    return [
        dataclasses.replace(spans[i], parent=position.get(spans[i].parent, -1))
        for i in keep
    ]


def _ancestor(spans: list[Span], span: Span, name: str) -> Span | None:
    parent = span.parent
    while parent >= 0:
        if spans[parent].name == name:
            return spans[parent]
        parent = spans[parent].parent
    return None


def layer_metrics(spans: list[Span], *, samples: list, counts: dict) -> dict[str, float]:
    """The per-layer metrics over ``spans`` (already cut to the timed window).

    ``samples`` are the traced calls (their kinds and seconds give the
    service latencies) and ``counts`` the program's own exact counts
    summed over them.  ``bench.trace_overhead_frac`` is not among them:
    it compares traced with untraced calls.
    """
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    metrics: dict[str, float] = {}
    for name in CALL_METRICS:
        group = by_name.get(name, [])
        metrics[f"{name}.calls"] = len(group)
        metrics[f"{name}.busy_s"] = sum(s.seconds for s in group)

    metrics["hazards.surge_cells"] = sum(s.extra for s in by_name.get("hazards.surge", []))

    metrics["runtime.retries"] = sum(s.extra or 0 for s in by_name.get("runtime.run", []))
    # What RunController.run spends outside its parameter pass and realize calls.
    metrics["runtime.overhead_s"] = self_seconds(spans).get("runtime.run", 0.0)

    metrics["core.cells"] = len(by_name.get("core.cell", []))
    scalar_cells = {
        id(cell)
        for span in spans
        if span.extra == SCALAR and span.name.startswith("core.stage.")
        for cell in [_ancestor(spans, span, "core.cell")]
        if cell is not None
    }
    metrics["core.scalar_cells"] = len(scalar_cells)

    metrics["sampling.rounds"] = counts.get("sampling.rounds", 0)
    metrics["sampling.realizations"] = counts.get("sampling.realizations", 0)

    # Generation and analysis under each sweep; the rest of its time is
    # the sweep's own scheduling and bookkeeping.
    under_sweep = {
        name: [s for s in by_name.get(name, []) if _ancestor(spans, s, "api.run_sweep")]
        for name in ("hazards.generate", "core.run_matrix")
    }
    metrics["sweep.generations"] = len(under_sweep["hazards.generate"])
    metrics["sweep.overhead_s"] = sum(s.seconds for s in by_name.get("api.run_sweep", [])) - sum(
        s.seconds for group in under_sweep.values() for s in group
    )

    submitted = {s.extra: s.t1 for s in by_name.get("_queue.submit", [])}
    queue_wait = sum(
        s.t1 - submitted[s.extra]
        for s in by_name.get("_queue.take", [])
        if s.extra in submitted
    )
    metrics["service.queue_wait_s"] = queue_wait
    server_busy = queue_wait + sum(
        s.seconds for s in spans
        if s.role == "server" and s.parent < 0 and not s.name.startswith("_")
    )
    requests = [s for s in samples if s.kind in ("fresh", "reload", "cached")]
    metrics["service.http_s"] = (
        sum(s.seconds for s in requests) - server_busy if requests else 0.0
    )
    for kind in ("reload", "cached"):
        seconds = [s.seconds for s in samples if s.kind == kind]
        metrics[f"service.{kind}_s_p50"] = statistics.median(seconds) if seconds else 0.0
    return metrics


def self_seconds(spans: list[Span]) -> dict[str, float]:
    """Per span name: duration minus the part its child spans cover.

    Children of one span run on the parent's thread, one after another,
    so their durations add up to the covered part.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.seconds
    totals: dict[str, float] = {}
    for span, child_s in zip(spans, covered):
        totals[span.name] = totals.get(span.name, 0.0) + span.seconds - child_s
    return totals
