"""The observer object instrumented code talks to, and its activation.

Hot paths never import metrics or tracing directly; they grab the
*active* observer (:func:`current`) and call ``obs.inc`` / ``obs.span``
/ ``obs.event``.  Two implementations exist:

* :class:`Observability` -- a live bundle of one
  :class:`~repro.obs.metrics.MetricsRegistry`, one
  :class:`~repro.obs.tracing.Tracer`, and one
  :class:`~repro.obs.events.EventLog`.
* :class:`NullObservability` -- the default: every method is a no-op
  and ``span()`` returns one shared reusable null context, so
  instrumented code costs a few attribute lookups per call site when
  nobody is observing.  The benchmark in ``scripts/bench_ensemble.py``
  asserts this overhead stays under its budget.

:func:`activate` installs an observer for a ``with`` block; the facade
(:func:`repro.api.run_study`) is the only place that should need it --
instrumentation is wired once there rather than per script.  The active
observer is context-local (a :class:`contextvars.ContextVar`): each
thread starts with the null observer, so concurrent studies on threads
each record into their own, and worker processes ship metric
*snapshots* back instead (see :meth:`MetricsRegistry.merge`).
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator

from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer


class _NullSpanContext:
    """A reusable, stateless no-op context manager."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpanContext()


class Observability:
    """A live observer: metrics + trace tree + event log for one run."""

    enabled = True

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()
        self.tracer = Tracer()
        self.events = EventLog()

    # Thin delegation keeps one call-site idiom for instrumented code.
    def span(self, name: str, **meta):
        return self.tracer.span(name, **meta)

    def record_span(self, name: str, duration_s: float, **meta) -> None:
        self.tracer.record(name, duration_s, **meta)

    def inc(self, name: str, value: float = 1) -> None:
        self.metrics.inc(name, value)

    def set_gauge(self, name: str, value: float) -> None:
        self.metrics.set_gauge(name, value)

    def observe(self, name: str, value: float) -> None:
        self.metrics.observe(name, value)

    def event(self, kind: str, **fields) -> None:
        self.events.emit(kind, **fields)

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold a worker process's metric snapshot into this observer.

        Worker processes run with their own observer and ship
        :meth:`MetricsRegistry.snapshot` payloads back; the parent merges
        them here so sweep- and run-level metrics aggregate across
        processes.
        """
        self.metrics.merge(snapshot)


class NullObservability:
    """The disabled observer: structurally compatible, does nothing."""

    enabled = False

    def span(self, name: str, **meta) -> _NullSpanContext:
        return _NULL_SPAN

    def record_span(self, name: str, duration_s: float, **meta) -> None:
        return None

    def inc(self, name: str, value: float = 1) -> None:
        return None

    def set_gauge(self, name: str, value: float) -> None:
        return None

    def observe(self, name: str, value: float) -> None:
        return None

    def event(self, kind: str, **fields) -> None:
        return None

    def merge_snapshot(self, snapshot: dict) -> None:
        return None


NULL_OBSERVER = NullObservability()

_active: ContextVar[Observability | NullObservability] = ContextVar(
    "repro_observer", default=NULL_OBSERVER
)

#: The active observer (the shared null observer by default).
current = _active.get


@contextmanager
def activate(obs: Observability | NullObservability) -> Iterator:
    """Install ``obs`` as the active observer for the duration of a block."""
    token = _active.set(obs)
    try:
        yield obs
    finally:
        _active.reset(token)
