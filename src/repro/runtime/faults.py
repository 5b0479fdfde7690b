"""Deterministic fault injection for the run controller.

A :class:`FaultPlan` scripts exactly which realizations misbehave, how,
and on which attempts, so chaos tests can *prove* the controller's
guarantees (retry, resume, bit-identical output) instead of assuming
them.  Plans are plain picklable data: the controller ships the plan to
worker processes, and the block function consults it right before and
after running a block's kernel.

Faults are keyed by ``(realization index, attempt)``: a fault with
``times=n`` fires on attempts ``0 .. n-1`` and then stops, which is what
lets a retried task eventually succeed and keeps every run of the same
plan identical.  :meth:`FaultPlan.random` draws the victim indices from a
seeded generator for large randomized chaos sweeps.

Four behaviors are supported:

* ``crash`` -- the task raises; the worker survives.
* ``kill``  -- the worker process exits hard (``os._exit``), collapsing
  the pool (``BrokenProcessPool``).  Inline (``n_jobs=1``) runs downgrade
  this to ``crash`` so the host process survives.
* ``hang``  -- the task sleeps far past any sane per-task timeout.
* ``corrupt`` -- the task completes but the realization's depth row comes
  back non-finite, which result validation must catch.

The plan can also damage artifacts *at rest*: :meth:`corrupt_file`
overwrites a prefix of an on-disk shard or cache entry with seeded
garbage, simulating a torn write from a ``kill -9`` of a non-atomic
writer.
"""

from __future__ import annotations

import enum
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.errors import RuntimeControlError


class FaultKind(str, enum.Enum):
    CRASH = "crash"
    KILL = "kill"
    HANG = "hang"
    CORRUPT = "corrupt"


class InjectedCrash(RuntimeError):
    """Raised inside a worker by a ``crash`` fault (deliberately *not* a
    :class:`~repro.errors.ReproError`, so the controller treats it as a
    retryable worker failure rather than a fatal modeling error)."""


@dataclass(frozen=True)
class FaultSpec:
    """One scripted fault: ``kind`` fires on the first ``times`` attempts."""

    index: int
    kind: FaultKind
    times: int = 1
    hang_s: float = 3600.0

    def __post_init__(self) -> None:
        if self.index < 0:
            raise RuntimeControlError("fault index cannot be negative")
        if self.times < 1:
            raise RuntimeControlError("fault must fire at least once")
        if self.hang_s <= 0:
            raise RuntimeControlError("hang duration must be positive")

    def fires_on(self, attempt: int) -> bool:
        return attempt < self.times


@dataclass
class FaultPlan:
    """A seeded, deterministic script of worker and disk faults."""

    seed: int = 0
    specs: dict[int, FaultSpec] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Building a plan
    # ------------------------------------------------------------------
    def _add(self, spec: FaultSpec) -> "FaultPlan":
        if spec.index in self.specs:
            raise RuntimeControlError(
                f"realization {spec.index} already has a scripted fault"
            )
        self.specs[spec.index] = spec
        return self

    def crash(self, index: int, times: int = 1) -> "FaultPlan":
        """Make realization ``index`` raise on its first ``times`` attempts."""
        return self._add(FaultSpec(index, FaultKind.CRASH, times))

    def kill(self, index: int, times: int = 1) -> "FaultPlan":
        """Make realization ``index`` kill its worker process outright."""
        return self._add(FaultSpec(index, FaultKind.KILL, times))

    def hang(self, index: int, times: int = 1, hang_s: float = 3600.0) -> "FaultPlan":
        """Make realization ``index`` sleep past the per-task timeout."""
        return self._add(FaultSpec(index, FaultKind.HANG, times, hang_s=hang_s))

    def corrupt(self, index: int, times: int = 1) -> "FaultPlan":
        """Make realization ``index`` return a mangled payload."""
        return self._add(FaultSpec(index, FaultKind.CORRUPT, times))

    @classmethod
    def random(
        cls,
        seed: int,
        count: int,
        crash_rate: float = 0.0,
        hang_rate: float = 0.0,
        corrupt_rate: float = 0.0,
        times: int = 1,
        hang_s: float = 3600.0,
    ) -> "FaultPlan":
        """Draw victim realizations deterministically from ``seed``.

        Each index suffers at most one fault; rates are per-realization
        probabilities evaluated in index order, so the same ``(seed,
        count, rates)`` always scripts the same chaos.
        """
        for name, rate in (
            ("crash_rate", crash_rate),
            ("hang_rate", hang_rate),
            ("corrupt_rate", corrupt_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise RuntimeControlError(f"{name} must be within [0, 1]")
        plan = cls(seed=seed)
        rng = np.random.default_rng(seed)
        for index in range(count):
            draw = float(rng.random())
            if draw < crash_rate:
                plan.crash(index, times=times)
            elif draw < crash_rate + hang_rate:
                plan.hang(index, times=times, hang_s=hang_s)
            elif draw < crash_rate + hang_rate + corrupt_rate:
                plan.corrupt(index, times=times)
        return plan

    # ------------------------------------------------------------------
    # Worker-side application
    # ------------------------------------------------------------------
    def action_for(self, index: int, attempt: int) -> FaultKind | None:
        """The fault (if any) scripted for this ``(index, attempt)``."""
        spec = self.specs.get(index)
        if spec is not None and spec.fires_on(attempt):
            return spec.kind
        return None

    def apply_before(self, index: int, attempt: int, inline: bool = False) -> None:
        """Fire any pre-task fault for ``(index, attempt)``.

        ``inline`` marks an in-process (``n_jobs=1``) run: ``kill`` is
        downgraded to ``crash`` (exiting would take the host with it) and
        ``hang`` sleeps only briefly before raising, since there is no
        supervising controller to preempt an in-process sleep.
        """
        kind = self.action_for(index, attempt)
        if kind is FaultKind.CRASH:
            raise InjectedCrash(f"injected crash (realization {index}, attempt {attempt})")
        if kind is FaultKind.KILL:
            if inline:
                raise InjectedCrash(
                    f"injected kill downgraded to crash inline (realization {index})"
                )
            os._exit(3)
        if kind is FaultKind.HANG:
            spec = self.specs[index]
            if inline:
                time.sleep(min(spec.hang_s, 0.05))
                raise InjectedCrash(f"injected hang (realization {index}, inline)")
            time.sleep(spec.hang_s)

    def mangle_rows(
        self, indices: Sequence[int], attempts: Sequence[int], depths: np.ndarray
    ) -> np.ndarray:
        """Apply ``corrupt`` faults to a block's depth rows.

        Row ``r`` (realization ``indices[r]`` on attempt ``attempts[r]``)
        comes back non-finite when a ``corrupt`` fault fires for it.
        """
        hit = [
            row
            for row, (index, attempt) in enumerate(zip(indices, attempts))
            if self.action_for(index, attempt) is FaultKind.CORRUPT
        ]
        if not hit:
            return depths
        depths = np.array(depths, dtype=float)
        depths[hit] = math.nan
        return depths

    # ------------------------------------------------------------------
    # Disk-side application
    # ------------------------------------------------------------------
    def corrupt_file(self, path: str | Path, length: int = 256) -> None:
        """Overwrite the head of ``path`` with seeded garbage (torn write)."""
        target = Path(path)
        if not target.exists():
            raise RuntimeControlError(f"cannot corrupt missing file {target}")
        rng = np.random.default_rng(self.seed)
        garbage = rng.integers(0, 256, size=length, dtype=np.uint8).tobytes()
        size = target.stat().st_size
        with target.open("r+b") as handle:
            handle.write(garbage[: max(1, min(length, size))])

    def truncate_file(self, path: str | Path, keep_fraction: float = 0.5) -> None:
        """Truncate ``path`` as if its writer died mid-write."""
        if not 0.0 <= keep_fraction < 1.0:
            raise RuntimeControlError("keep_fraction must be within [0, 1)")
        target = Path(path)
        if not target.exists():
            raise RuntimeControlError(f"cannot truncate missing file {target}")
        size = target.stat().st_size
        with target.open("r+b") as handle:
            handle.truncate(int(size * keep_fraction))
