"""The fault-tolerant run controller for the realization pass.

:class:`RunController` runs the pending realizations of one generation
run as blocks of ``generator.block_rows`` rows, each through one block
function, :func:`run_block`: the rows' pre-task faults, the generator's
block kernel (``realize_block``), then corrupt-row faults.  In process
(``n_jobs == 1``) the blocks run one after another; pooled, each block
is one task on a pool of ``min(n_jobs, blocks)`` worker processes, with
at most two tasks per worker in flight.  Either way the controller
retries retryable failures with capped exponential backoff, enforces a
per-task timeout on hung workers, survives a collapsed pool
(``BrokenProcessPool`` after a worker is killed), validates every
returned block, and streams settled rows into a
:class:`~repro.runtime.checkpoint.CheckpointStore` so an interrupted run
resumes from its shards to a bit-identical ensemble.

Failure taxonomy (see :mod:`repro.errors`):

* **retryable** -- :class:`WorkerCrashError` (worker died or its task
  raised an unexpected exception), :class:`WorkerTimeoutError` (task
  exceeded ``task_timeout_s``), :class:`CorruptResultError` (payload
  failed validation).  Each retry is charged to a realization; after
  ``max_retries`` charges the run flushes its checkpoint and raises
  :class:`RetryExhaustedError`.
* **fatal** -- any :class:`~repro.errors.ReproError` raised by the task
  itself: a deterministic modeling error that no retry will fix is
  surfaced immediately (after flushing the checkpoint).

Charging: one attempt at a block settles its leading good rows and
charges its first failing row once -- the row whose pre-task fault
raised (the block function stops there and reports it) or the first
non-finite row -- and the rows from there on rerun as one block.  A
failure no row owns (the kernel itself raised) is charged to the
block's first row.  A collapsed pool charges every row of every
in-flight block one :class:`WorkerCrashError` attempt -- the collapse
destroys the evidence of which row killed it -- and the pool is
rebuilt.  A hung block charges each of its rows once; innocent
in-flight blocks lost to the rebuild are resubmitted without penalty.
Settled rows stay recorded throughout.

Data flow: the parameter pass hands over the (count, 7) parameter
matrix.  The parent cuts each block's (rows, 7) parameter rows and
replays its (rows, N) dropout draws; the block function returns a
(rows, A) depth block (pickled back through the result pipe when
pooled), which the parent validates with one ``isfinite`` and writes
into the run's (count, A) depth matrix -- the matrix the returned
:class:`~repro.hazards.hurricane.ensemble.HurricaneEnsemble` holds.

Determinism: realization ``i`` consumes only the serial parameter pass's
row ``i`` and the uniform stream of ``SeedSequence(seed).spawn(count)[i]``,
replayed for the block by :class:`~repro.runtime.streams.SpawnedStreams`
at every (re)submission, and the block kernel's rows do not depend on
their block, so retries, block boundaries, worker counts, pool rebuilds,
and resume all produce the same bits.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Sequence

import numpy as np

from repro._deprecation import warn_deprecated
from repro.errors import (
    CorruptResultError,
    ReproError,
    RetryExhaustedError,
    RuntimeControlError,
    WorkerCrashError,
    WorkerTimeoutError,
)
from repro.hazards.hurricane.ensemble import EnsembleGenerator, HurricaneEnsemble
from repro.obs.observer import current as current_observer
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.faults import FaultPlan
from repro.runtime.streams import SpawnedStreams

#: What :func:`run_block` returns: the depth rows it computed (``None``
#: when it computed none), ``(row, error)`` when row ``row``'s pre-task
#: fault stopped it (else ``None``), its per-stage timer and its seconds.
BlockResult = tuple[
    np.ndarray | None, tuple[int, Exception] | None, dict[str, float] | None, float
]


@dataclass(frozen=True)
class RetryPolicy:
    """How hard the controller fights for each realization.

    ``task_timeout_s`` bounds one pool task, which is a whole block of
    ``generator.block_rows`` rows: a block still running past it charges
    each of its rows once.  Its clock starts when the executor queues
    the block for a worker, up to one block's run time before a worker
    picks it up, so set it to at least twice a block's run time.
    """

    max_retries: int = 3
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    task_timeout_s: float | None = None
    poll_interval_s: float = 0.05

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise RuntimeControlError("max_retries cannot be negative")
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise RuntimeControlError("backoff durations cannot be negative")
        if self.task_timeout_s is not None and self.task_timeout_s <= 0:
            raise RuntimeControlError("task timeout must be positive")
        if self.poll_interval_s <= 0:
            raise RuntimeControlError("poll interval must be positive")

    def backoff_s(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based), capped."""
        return min(self.backoff_cap_s, self.backoff_base_s * (2 ** max(0, attempt - 1)))

    @classmethod
    def from_options(
        cls,
        max_retries: int | None = None,
        task_timeout_s: float | None = None,
    ) -> "RetryPolicy | None":
        """A policy from optional knobs, or ``None`` when both are unset.

        The CLI, facade, and sweep engine all accept independent
        ``--max-retries`` / ``--task-timeout`` options; this is the one
        place that turns them into a policy (``None`` means "use the
        controller's default policy").
        """
        if max_retries is None and task_timeout_s is None:
            return None
        kwargs: dict = {}
        if max_retries is not None:
            kwargs["max_retries"] = max_retries
        if task_timeout_s is not None:
            kwargs["task_timeout_s"] = task_timeout_s
        return cls(**kwargs)


class RunController:
    """Supervises the realization pass of one ensemble generation run."""

    def __init__(
        self,
        generator: EnsembleGenerator,
        count: int,
        seed: int,
        n_jobs: int = 1,
        policy: RetryPolicy | None = None,
        faults: FaultPlan | None = None,
        checkpoint: CheckpointStore | None = None,
        transport: str | None = None,
    ) -> None:
        if count < 1:
            raise RuntimeControlError("run needs at least one realization")
        if n_jobs < 1:
            raise RuntimeControlError("n_jobs must be at least 1")
        if transport is not None:
            warn_deprecated("RunController(transport=...)")
        self.generator = generator
        self.count = count
        self.seed = seed
        self.n_jobs = n_jobs
        self.policy = policy or RetryPolicy()
        self.faults = faults
        self.checkpoint = checkpoint
        self._asset_order: tuple[str, ...] = tuple(generator.asset_order)
        self._params = np.empty((0, 0))
        self._depths = np.empty((0, 0))
        self._done = np.zeros(0, dtype=bool)
        self._timer: dict[str, float] | None = None
        self.retries_by_index: dict[int, int] = {}
        self.pool_rebuilds = 0
        self.resumed_realizations = 0
        self._obs = current_observer()

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def run(self, resume: bool = False) -> HurricaneEnsemble:
        """Produce the full ensemble, resuming from shards if asked.

        With an observer enabled, the pass's per-stage seconds become one
        aggregate ``ensemble.<stage>`` child span of the realization pass
        per stage: the parent's dropout draws, and the block function's
        track, surge and inundation seconds (summed over the workers,
        whose count a pooled run adds as ``workers=``).
        """
        obs = self._obs = current_observer()
        with obs.span("ensemble.parameter_pass", count=self.count):
            self._params = np.asarray(
                self.generator.sample_all_parameters(self.count, self.seed), dtype=float
            )
            streams = SpawnedStreams(self.seed)
        self._depths = np.empty((self.count, len(self._asset_order)))
        self._done = np.zeros(self.count, dtype=bool)
        if self.checkpoint is not None:
            if resume:
                with obs.span("ensemble.checkpoint_load"):
                    resumed = self.checkpoint.load(expected_params=self._params)
                self._depths[resumed] = self.checkpoint.depths[resumed]
                self._done[resumed] = True
                self.resumed_realizations = len(resumed)
                if len(resumed):
                    obs.inc("runtime.checkpoint.resumed", len(resumed))
                    obs.event(
                        "checkpoint_resume",
                        realizations=len(resumed),
                        of=self.count,
                    )
            else:
                self.checkpoint.reset()
        pending = np.flatnonzero(~self._done).tolist()
        rows = self.generator.block_rows
        blocks = [pending[start:start + rows] for start in range(0, len(pending), rows)]
        self._timer = {} if obs.enabled else None
        try:
            with obs.span(
                "ensemble.realization_pass",
                count=len(pending),
                n_jobs=self.n_jobs,
            ):
                meta = {}
                if self.n_jobs > 1 and blocks:
                    meta["workers"] = self._run_pool(blocks, streams)
                else:
                    self._run_inline(blocks, streams)
                for stage, seconds in (self._timer or {}).items():
                    obs.record_span(
                        f"ensemble.{stage}", seconds, realizations=len(pending), **meta
                    )
        finally:
            self._flush()
        obs.inc("runtime.realizations_completed", len(pending))
        return HurricaneEnsemble(
            self.generator.scenario.name,
            seed=self.seed,
            asset_names=self._asset_order,
            depths=self._depths,
            params=self._params,
        )

    def _flush(self) -> None:
        if self.checkpoint is not None:
            self.checkpoint.flush()

    def _record(self, indices: list[int], depths: np.ndarray) -> None:
        """Settle validated rows: into the run's matrix and the checkpoint."""
        self._depths[indices] = depths
        self._done[indices] = True
        if self.checkpoint is not None:
            self.checkpoint.record(indices, depths, self._params[indices])

    def _block(self, todo: list[int], streams: SpawnedStreams) -> tuple:
        """:func:`run_block`'s inputs for ``todo``, with its dropout draws replayed.

        The rows' current attempts key their scripted faults; the draw's
        seconds go to the run's ``dropout`` stage.
        """
        drawing = time.perf_counter()
        uniforms = streams.uniforms(todo, self.generator.mesh_size)
        if self._timer is not None:
            drawn = time.perf_counter() - drawing
            self._timer["dropout"] = self._timer.get("dropout", 0.0) + drawn
        return todo, [self._attempt_of(i) for i in todo], self._params[todo], uniforms

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------
    def _settle(self, todo: list[int], depths) -> int:
        """Record a block's leading finite rows; return how many settled.

        One ``isfinite`` checks the whole (rows, A) block.  The rows
        before the first non-finite one are recorded; the caller charges
        that row and reruns the rest.
        """
        if np.shape(depths) != (len(todo), len(self._asset_order)):
            raise CorruptResultError(
                f"block of {len(todo)} realizations returned "
                f"{np.shape(depths)} depths"
            )
        finite = np.isfinite(depths).all(axis=1)
        settled = len(todo) if finite.all() else int(finite.argmin())
        if settled:
            self._record(todo[:settled], depths[:settled])
        return settled

    def _conclude(self, todo: list[int], outcome: Callable[[], BlockResult]) -> list[int]:
        """Settle one attempt at a block; return its rows left to rerun.

        ``outcome`` returns :func:`run_block`'s result or raises what the
        attempt raised (the inline call itself, or a pooled future's
        ``result``).  The leading good rows are recorded and the first
        failing row is charged once; a fatal error flushes the checkpoint
        and propagates.
        """
        settled = 0
        try:
            depths, stopped, timer, seconds = outcome()
            ran = len(todo) if stopped is None else stopped[0]
            if ran:
                settled = self._settle(todo[:ran], depths)
            if timer is not None and self._timer is not None:
                for stage, spent in timer.items():
                    self._timer[stage] = self._timer.get(stage, 0.0) + spent
                for _ in range(settled):
                    self._obs.observe("runtime.realization_s", seconds / len(todo))
            if settled == len(todo):
                return []
            if settled < ran or stopped is None:
                raise CorruptResultError(f"task {todo[settled]} returned non-finite depths")
            raise stopped[1]
        except Exception as exc:
            error = self._classify(exc)
            if error is None:
                self._flush()
                raise
            index = todo[settled]
            self._charge(index, error)
            time.sleep(self.policy.backoff_s(self._attempt_of(index)))
            return todo[settled:]

    def _classify(self, exc: BaseException) -> RuntimeControlError | None:
        """Map a task failure to the taxonomy; ``None`` means fatal."""
        if isinstance(exc, RuntimeControlError):
            return exc if exc.retryable else None
        if isinstance(exc, ReproError):
            return None  # deterministic modeling error: retries cannot help
        if isinstance(exc, BrokenProcessPool):
            return WorkerCrashError(f"worker pool collapsed: {exc}")
        return WorkerCrashError(f"task raised {type(exc).__name__}: {exc}")

    def _charge(self, index: int, error: RuntimeControlError) -> None:
        """Charge one retryable failure; raise once the budget is spent."""
        attempts = self.retries_by_index.get(index, 0) + 1
        self.retries_by_index[index] = attempts
        self._obs.inc("runtime.retries")
        self._obs.inc(f"runtime.retries.{type(error).__name__}")
        self._obs.event(
            "retry",
            realization=index,
            attempt=attempts,
            error=type(error).__name__,
        )
        if attempts > self.policy.max_retries:
            self._flush()
            raise RetryExhaustedError(
                f"realization {index} failed {attempts} times "
                f"(max_retries={self.policy.max_retries}); last error: {error}"
            ) from error

    def _charge_rows(self, blocks: Iterable[list[int]], error: RuntimeControlError) -> None:
        """Charge every row of ``blocks`` once (a pool gave them up)."""
        for todo in blocks:
            for index in todo:
                self._charge(index, error)

    def _attempt_of(self, index: int) -> int:
        return self.retries_by_index.get(index, 0)

    # ------------------------------------------------------------------
    # Inline (n_jobs == 1) execution
    # ------------------------------------------------------------------
    def _run_inline(self, blocks: list[list[int]], streams: SpawnedStreams) -> None:
        """Run the blocks in process, each until all its rows settle."""
        timed = self._timer is not None
        for todo in blocks:
            while todo:
                attempt = partial(
                    run_block,
                    self.generator,
                    self.faults,
                    *self._block(todo, streams),
                    timed=timed,
                    inline=True,
                )
                todo = self._conclude(todo, attempt)

    # ------------------------------------------------------------------
    # Pooled execution
    # ------------------------------------------------------------------
    def _run_pool(self, blocks: list[list[int]], streams: SpawnedStreams) -> int:
        """Run the blocks as pool tasks, rebuilding the pool as needed.

        Returns the worker count, ``min(n_jobs, blocks)``.
        """
        queue = deque(blocks)
        workers = min(self.n_jobs, len(queue))
        self._obs.event("generation_pool", workers=workers, blocks=len(queue))
        while queue:
            executor = ProcessPoolExecutor(
                max_workers=workers,
                initializer=_init_worker,
                initargs=(self.generator, self.faults),
            )
            try:
                rebuild = self._drive_pool(executor, queue, workers, streams)
            finally:
                terminate_pool(executor)
            if rebuild:
                self.pool_rebuilds += 1
                self._obs.inc("runtime.pool_rebuilds")
                self._obs.event("pool_rebuild", remaining=sum(map(len, queue)))
        return workers

    def _drive_pool(self, executor, queue: deque, workers: int, streams) -> bool:
        """Run queued blocks on one pool; ``True`` means it must be rebuilt.

        At most ``2 * workers`` blocks are in flight.  A block's rows left
        to rerun go back to the head of the queue, and so does every
        block still in flight when the pool is given up.
        """
        timed = self._timer is not None
        futures: dict[Future, list[int]] = {}
        running_since: dict[Future, float] = {}
        try:
            while queue or futures:
                while queue and len(futures) < 2 * workers:
                    try:
                        future = executor.submit(
                            _pool_block, *self._block(queue[0], streams), timed
                        )
                    except BrokenProcessPool:
                        # Only in-flight blocks can have broken the pool;
                        # the block that failed to submit stays queued.
                        self._charge_rows(
                            futures.values(), WorkerCrashError("worker pool collapsed")
                        )
                        return True
                    futures[future] = queue.popleft()
                done, _ = wait(
                    futures, timeout=self.policy.poll_interval_s,
                    return_when=FIRST_COMPLETED,
                )
                collapsed = False
                for future in done:
                    if isinstance(future.exception(), BrokenProcessPool):
                        collapsed = True
                        continue
                    running_since.pop(future, None)
                    rest = self._conclude(futures.pop(future), future.result)
                    if rest:
                        queue.appendleft(rest)
                if collapsed:
                    # The collapse destroyed any evidence of which row
                    # killed the worker: every in-flight row pays once.
                    self._charge_rows(
                        futures.values(), WorkerCrashError("worker pool collapsed mid-task")
                    )
                    return True
                hung = self._hung_block(futures, running_since)
                if hung is not None:
                    self._charge_rows(
                        [hung],
                        WorkerTimeoutError(
                            f"block of realizations {hung[0]}..{hung[-1]} still "
                            f"running after {self.policy.task_timeout_s:.3g}s"
                        ),
                    )
                    return True
            return False
        finally:
            queue.extendleft(reversed(list(futures.values())))

    def _hung_block(self, futures, running_since) -> list[int] | None:
        """The block of a task running past the timeout, if any."""
        timeout = self.policy.task_timeout_s
        if timeout is None:
            return None
        now = time.monotonic()
        for future in futures:
            if future.running():
                running_since.setdefault(future, now)
        for future, started in running_since.items():
            if now - started > timeout:
                return futures[future]
        return None


def terminate_pool(executor: ProcessPoolExecutor) -> None:
    """Stop a pool hard: cancel queued work and kill live workers.

    ``shutdown`` alone would wait on a hung worker forever, so any
    still-live worker processes are terminated outright (private
    attribute, guarded -- a missing attribute degrades to a plain
    shutdown).  The workers are listed before ``shutdown``, which drops
    the executor's reference to them.  Shared by :class:`RunController`
    (realization pass) and
    :class:`~repro.runtime.supervisor.StudySupervisor` (study pass).
    """
    processes = list((getattr(executor, "_processes", None) or {}).values())
    executor.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        try:
            process.terminate()
        except (OSError, ValueError):  # already gone
            pass
    for process in processes:
        try:
            process.join(timeout=5.0)
        except (OSError, ValueError, AssertionError):
            pass


def run_block(
    generator: EnsembleGenerator,
    faults: FaultPlan | None,
    indices: Sequence[int],
    attempts: Sequence[int],
    params: np.ndarray,
    uniforms: np.ndarray,
    *,
    timed: bool = False,
    inline: bool = False,
) -> BlockResult:
    """Realize one block of rows: the one kernel path of both run modes.

    Fires each row's pre-task fault in order (``FaultPlan.apply_before``;
    ``inline`` marks an in-process run), runs the generator's
    ``realize_block`` over the rows before the first one whose fault
    raised -- all of them when none did -- then applies corrupt-row
    faults (``mangle_rows``).  Returns ``(depths, stopped, timer,
    seconds)``: the computed rows' (k, A) depths (``None`` for k = 0),
    ``(k, error)`` when row ``k``'s fault raised, and, when ``timed``,
    the kernel's per-stage seconds and the call's wall seconds.
    """
    started = time.perf_counter()
    stopped = None
    if faults is not None:
        for row, (index, attempt) in enumerate(zip(indices, attempts)):
            try:
                faults.apply_before(index, attempt, inline=inline)
            except Exception as exc:
                stopped = (row, exc)
                break
    ran = len(indices) if stopped is None else stopped[0]
    timer: dict[str, float] | None = {} if timed else None
    depths = None
    if ran:
        depths = generator.realize_block(params[:ran], uniforms[:ran], timer)
        if faults is not None:
            depths = faults.mangle_rows(indices[:ran], attempts[:ran], depths)
    return depths, stopped, timer, time.perf_counter() - started


# ----------------------------------------------------------------------
# Worker-process side
# ----------------------------------------------------------------------
_WORKER_GENERATOR: EnsembleGenerator | None = None
_WORKER_FAULTS: FaultPlan | None = None


def _init_worker(generator: EnsembleGenerator, faults: FaultPlan | None) -> None:
    """Install the (already-built) generator and fault plan in a worker."""
    global _WORKER_GENERATOR, _WORKER_FAULTS
    _WORKER_GENERATOR = generator
    _WORKER_FAULTS = faults


def _pool_block(indices, attempts, params, uniforms, timed: bool) -> BlockResult:
    """One pooled task: :func:`run_block` on the worker's generator."""
    assert _WORKER_GENERATOR is not None, "worker pool not initialized"
    return run_block(
        _WORKER_GENERATOR, _WORKER_FAULTS, indices, attempts, params, uniforms,
        timed=timed,
    )
