"""The fault-tolerant run controller for the parallel realization pass.

:class:`RunController` owns what used to be an unsupervised
``ProcessPoolExecutor.map``.  In process (``n_jobs == 1``) it runs the
pending realizations through the generator's block kernel
(``realize_block``), ``block_rows`` at a time; pooled, it submits one
task per realization.  Either way it retries retryable failures with
capped exponential backoff, charging each to the realization that
raised it, enforces a per-task timeout on hung workers, survives a
collapsed pool (``BrokenProcessPool`` after a worker is killed),
validates every returned payload, and streams completed rows into a
:class:`~repro.runtime.checkpoint.CheckpointStore` so an interrupted run
resumes from its shards to a bit-identical ensemble.

Failure taxonomy (see :mod:`repro.errors`):

* **retryable** -- :class:`WorkerCrashError` (worker died or its task
  raised an unexpected exception), :class:`WorkerTimeoutError` (task
  exceeded ``task_timeout_s``), :class:`CorruptResultError` (payload
  failed validation).  Each retry is charged to the realization; after
  ``max_retries`` charges the run flushes its checkpoint and raises
  :class:`RetryExhaustedError`.
* **fatal** -- any :class:`~repro.errors.ReproError` raised by the task
  itself: a deterministic modeling error that no retry will fix is
  surfaced immediately (after flushing the checkpoint).

When a pool collapses, every in-flight task is charged one
:class:`WorkerCrashError` attempt -- the collapse destroys the evidence
of which task killed it -- and the pool is rebuilt.  A hung task charges
only itself; innocent in-flight tasks lost to the rebuild are
resubmitted without penalty.

Data flow: the parameter pass hands over the (count, 7) parameter
matrix, each block goes through the kernel as a (rows, 7) parameter
block plus a (rows, N) block of dropout draws, and comes back as a
(rows, A) depth block that is validated with one ``isfinite`` and
written into the run's (count, A) depth matrix -- the matrix the
returned :class:`~repro.hazards.hurricane.ensemble.HurricaneEnsemble`
holds.

Determinism: realization ``i`` consumes only the serial parameter pass's
row ``i`` and the uniform stream of ``SeedSequence(seed).spawn(count)[i]``,
replayed for the block by :class:`~repro.runtime.streams.SpawnedStreams`
at every (re)submission (pooled tasks get a ``Generator`` in the same
replayed state), and the block kernel's rows do not depend on their
block, so retries, block boundaries, worker counts, pool rebuilds, and
resume all produce the same bits.

Transport: pooled runs default to the *in-place* depth transport -- a
parent-owned shared-memory board
(:class:`~repro.io.shared_ensemble.DepthShardBoard`) that workers write
each realization's depth row into directly, returning only a light
:class:`DepthShard` payload instead of pickling the per-asset mapping
back through the result pipe.  Every row is still validated, and faults
and retries behave identically (a retry rewrites the same bits).
``transport="pickle"`` pins the historical per-result pickling baseline.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

import numpy as np

from repro.errors import (
    CorruptResultError,
    ReproError,
    RetryExhaustedError,
    RuntimeControlError,
    WorkerCrashError,
    WorkerTimeoutError,
)
from repro.hazards.hurricane.ensemble import (
    EnsembleGenerator,
    HurricaneEnsemble,
    HurricaneRealization,
    StormParameters,
    params_from_row,
)
from repro.io.shared_ensemble import DepthShardBoard
from repro.obs.observer import current as current_observer
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.faults import FaultPlan
from repro.runtime.streams import SpawnedStreams

#: Transport choices for pooled runs: how workers return depths.
TRANSPORTS = ("auto", "inplace", "pickle")


@dataclass(frozen=True)
class DepthShard:
    """A worker's light result payload under the in-place transport.

    The realization's depth row already sits in the parent-owned
    :class:`~repro.io.shared_ensemble.DepthShardBoard` at ``index``; only
    the storm parameters (a handful of floats) cross the result pipe.
    """

    index: int
    params: StormParameters


@dataclass(frozen=True)
class RetryPolicy:
    """How hard the controller fights for each realization."""

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
        transport: str = "auto",
    ) -> None:
        if count < 1:
            raise RuntimeControlError("run needs at least one realization")
        if n_jobs < 1:
            raise RuntimeControlError("n_jobs must be at least 1")
        if transport not in TRANSPORTS:
            raise RuntimeControlError(
                f"unknown transport {transport!r}; pick one of {TRANSPORTS}"
            )
        self.generator = generator
        self.count = count
        self.seed = seed
        self.n_jobs = n_jobs
        self.policy = policy or RetryPolicy()
        self.faults = faults
        self.checkpoint = checkpoint
        self.transport = transport
        self._expected_assets = frozenset(a.name for a in generator.catalog)
        self._asset_order: tuple[str, ...] = tuple(
            getattr(generator, "asset_order", ()) or ()
        )
        if transport == "inplace" and not self._asset_order:
            raise RuntimeControlError(
                "in-place transport needs a generator exposing asset_order"
            )
        self._board: DepthShardBoard | None = None
        self._params = np.empty((0, 0))
        self._depths = np.empty((0, 0))
        self._done = np.zeros(0, dtype=bool)
        self.retries_by_index: dict[int, int] = {}
        self.pool_rebuilds = 0
        self.resumed_realizations = 0
        self._obs = current_observer()

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def run(self, resume: bool = False) -> HurricaneEnsemble:
        """Produce the full ensemble, resuming from shards if asked."""
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
        try:
            with obs.span(
                "ensemble.realization_pass",
                count=len(pending),
                n_jobs=self.n_jobs,
            ):
                if self.n_jobs == 1:
                    self._run_inline(pending, streams)
                else:
                    self._run_pool(pending, streams)
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

    def _accept(self, index: int, payload) -> np.ndarray:
        """Validate one pooled result; return its depth row.

        Workers on the in-place transport return a :class:`DepthShard`
        whose depth row already sits on the shared board.  The same
        guarantees as ``_validate`` hold -- index, asset-set, and
        finiteness -- but each check runs where it is cheap: the asset
        set was enforced in the worker before the row could land (the
        board's column order *is* the catalog's), the index is compared
        directly, and finiteness is one vectorized pass over the row.
        Any other payload (pickled transport, or a mangled result) goes
        through ``_validate`` untouched.
        """
        if self._board is None or not isinstance(payload, DepthShard):
            return self._validate(index, payload)
        if payload.index != index:
            raise CorruptResultError(
                f"task {index} returned realization {payload.index}"
            )
        row = self._board.view[index].copy()
        if not bool(np.isfinite(row).all()):
            raise CorruptResultError(f"task {index} returned non-finite depths")
        return row

    def _validate(self, index: int, result) -> np.ndarray:
        """Check a pooled realization payload; return its depth row."""
        if not isinstance(result, HurricaneRealization):
            raise CorruptResultError(
                f"task {index} returned {type(result).__name__}, not a realization"
            )
        if result.index != index:
            raise CorruptResultError(
                f"task {index} returned realization {result.index}"
            )
        depths = result.inundation.depths_m
        if set(depths) != self._expected_assets:
            raise CorruptResultError(f"task {index} returned a wrong asset set")
        row = np.array([depths[name] for name in self._asset_order], dtype=float)
        if not bool(np.isfinite(row).all()):
            raise CorruptResultError(f"task {index} returned non-finite depths")
        return row

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

    def _attempt_of(self, index: int) -> int:
        return self.retries_by_index.get(index, 0)

    # ------------------------------------------------------------------
    # Inline (n_jobs == 1) execution
    # ------------------------------------------------------------------
    def _run_inline(self, pending: list[int], streams: SpawnedStreams) -> None:
        """Run the pending realizations in process, one kernel block at a time.

        With an observer enabled, the generator's per-stage timer becomes
        one aggregate ``ensemble.<stage>`` child span of the realization
        pass per stage (dropout draws, track, surge, inundation).
        """
        timer: dict[str, float] | None = {} if self._obs.enabled else None
        rows = self.generator.block_rows
        for start in range(0, len(pending), rows):
            self._run_block(pending[start:start + rows], streams, timer)
        if timer is not None:
            for stage, seconds in timer.items():
                self._obs.record_span(
                    f"ensemble.{stage}", seconds, realizations=len(pending)
                )

    def _run_block(self, block: list[int], streams: SpawnedStreams, timer) -> None:
        """Settle one block, charging each failure to the row that raised it.

        A pre-task fault aborts the pass before the kernel runs; a row
        that fails validation leaves the rows before it recorded.  Either
        way the failing row is charged once and the unsettled rows rerun
        as a block, with their dropout draws replayed, so retries cannot
        change the bits.
        """
        faults = self.faults
        n_draws = self.generator.mesh_size
        todo = list(block)
        while todo:
            started = time.perf_counter() if timer is not None else 0.0
            settled = 0
            index = todo[0]
            error = None
            try:
                if faults is not None:
                    for index in todo:
                        faults.apply_before(index, self._attempt_of(index), inline=True)
                    index = todo[0]
                drawing = time.perf_counter() if timer is not None else 0.0
                uniforms = streams.uniforms(todo, n_draws)
                if timer is not None:
                    drawn = time.perf_counter() - drawing
                    timer["dropout"] = timer.get("dropout", 0.0) + drawn
                depths = self.generator.realize_block(self._params[todo], uniforms, timer)
                if faults is not None:
                    depths = faults.mangle_rows(
                        todo, [self._attempt_of(i) for i in todo], depths
                    )
                settled = self._settle(todo, depths)
                if settled < len(todo):
                    index = todo[settled]
                    raise CorruptResultError(f"task {index} returned non-finite depths")
            except Exception as exc:
                error = self._classify(exc)
                if error is None:
                    self._flush()
                    raise
            if timer is not None and settled:
                share = (time.perf_counter() - started) / len(todo)
                for _ in range(settled):
                    self._obs.observe("runtime.realization_s", share)
            todo = todo[settled:]
            if error is not None:
                self._charge(index, error)
                time.sleep(self.policy.backoff_s(self._attempt_of(index)))

    # ------------------------------------------------------------------
    # Pooled execution
    # ------------------------------------------------------------------
    def _use_inplace(self) -> bool:
        if self.transport == "pickle":
            return False
        return bool(self._asset_order)

    def _publish_board(self) -> "DepthShardBoard | None":
        """Create the in-place depth board, or ``None`` for pickling.

        Rows already settled before the pool starts (checkpoint-resumed
        realizations) are copied in by the parent so a completed board
        always holds the full matrix.  A board that cannot be created
        (no shared memory on this host) degrades to the pickled
        transport rather than failing the run.
        """
        if not self._use_inplace():
            return None
        try:
            board = DepthShardBoard.create(self.count, self._asset_order)
        except (OSError, ValueError) as exc:
            if self.transport == "inplace":
                raise RuntimeControlError(
                    f"in-place transport unavailable: {exc}"
                ) from exc
            return None
        board.view[self._done] = self._depths[self._done]
        return board

    def _run_pool(self, pending: list[int], streams: SpawnedStreams) -> None:
        remaining = set(pending)
        board = self._board = self._publish_board()
        self._obs.event(
            "generation_transport",
            transport="inplace" if board is not None else "pickle",
            n_jobs=self.n_jobs,
        )
        initargs = (
            self.generator,
            self.faults,
            board.descriptor if board is not None else None,
        )
        try:
            while remaining:
                executor = ProcessPoolExecutor(
                    max_workers=self.n_jobs,
                    initializer=_init_worker,
                    initargs=initargs,
                )
                try:
                    rebuild = self._drive_pool(executor, remaining, streams)
                finally:
                    self._terminate_pool(executor)
                if rebuild:
                    self.pool_rebuilds += 1
                    self._obs.inc("runtime.pool_rebuilds")
                    self._obs.event("pool_rebuild", remaining=len(remaining))
        finally:
            self._board = None
            if board is not None:
                board.close()
                board.unlink()

    def _submit(self, executor, index: int, streams: SpawnedStreams) -> Future:
        return executor.submit(
            _run_task,
            index,
            self._attempt_of(index),
            params_from_row(self._params[index]),
            streams.generator(index),
        )

    def _drive_pool(self, executor, remaining, streams) -> bool:
        """Run tasks on one pool; ``True`` means the pool must be rebuilt."""
        observed = self._obs.enabled
        futures: dict[Future, int] = {
            self._submit(executor, i, streams): i for i in sorted(remaining)
        }
        # Submit-to-completion latency per future (includes queueing).
        submitted_at: dict[Future, float] = (
            {f: time.perf_counter() for f in futures} if observed else {}
        )
        running_since: dict[Future, float] = {}
        while futures:
            done, _ = wait(
                futures, timeout=self.policy.poll_interval_s,
                return_when=FIRST_COMPLETED,
            )
            broken = False
            retry_now: list[int] = []
            for future in done:
                index = futures.pop(future)
                try:
                    row = self._accept(index, future.result())
                except Exception as exc:
                    submitted_at.pop(future, None)
                    if isinstance(exc, BrokenProcessPool):
                        broken = True
                    retryable = self._classify(exc)
                    if retryable is None:
                        self._flush()
                        raise
                    self._charge(index, retryable)
                    retry_now.append(index)
                else:
                    if observed:
                        started = submitted_at.pop(future, None)
                        if started is not None:
                            self._obs.observe(
                                "runtime.realization_s",
                                time.perf_counter() - started,
                            )
                    self._record([index], row[None, :])
                    remaining.discard(index)
            if broken:
                # The collapse destroyed any evidence of which in-flight
                # task killed the worker: charge them all one attempt.
                # (retry_now tasks were already charged above; all stay in
                # ``remaining`` and rerun on the rebuilt pool.)
                for index in futures.values():
                    self._charge(
                        index, WorkerCrashError("worker pool collapsed mid-task")
                    )
                return True
            for index in retry_now:
                time.sleep(self.policy.backoff_s(self._attempt_of(index)))
                try:
                    future = self._submit(executor, index, streams)
                    futures[future] = index
                    if observed:
                        submitted_at[future] = time.perf_counter()
                except BrokenProcessPool:
                    return True  # already charged; rerun on the rebuilt pool
            if self._hung_task(futures, running_since):
                return True
        return False

    def _hung_task(self, futures, running_since) -> bool:
        """Charge any task running past the timeout; ``True`` if one hung."""
        timeout = self.policy.task_timeout_s
        if timeout is None:
            return False
        now = time.monotonic()
        for future in futures:
            if future.running() and future not in running_since:
                running_since[future] = now
        for future, started in running_since.items():
            if future in futures and now - started > timeout:
                index = futures[future]
                self._charge(
                    index,
                    WorkerTimeoutError(
                        f"realization {index} still running after {timeout:.3g}s"
                    ),
                )
                return True
        return False

    @staticmethod
    def _terminate_pool(executor: ProcessPoolExecutor) -> None:
        terminate_pool(executor)


def terminate_pool(executor: ProcessPoolExecutor) -> None:
    """Stop a pool hard: cancel queued work and kill live workers.

    ``shutdown`` alone would wait on a hung worker forever, so any
    still-live worker processes are terminated outright (private
    attribute, guarded -- a missing attribute degrades to a plain
    shutdown).  Shared by :class:`RunController` (realization pass) and
    :class:`~repro.runtime.supervisor.StudySupervisor` (study pass).
    """
    executor.shutdown(wait=False, cancel_futures=True)
    processes = getattr(executor, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except (OSError, ValueError):  # already gone
            pass
    for process in list(processes.values()):
        try:
            process.join(timeout=5.0)
        except (OSError, ValueError, AssertionError):
            pass


# ----------------------------------------------------------------------
# Worker-process side
# ----------------------------------------------------------------------
_WORKER_GENERATOR: EnsembleGenerator | None = None
_WORKER_FAULTS: FaultPlan | None = None
_WORKER_BOARD: DepthShardBoard | None = None


def _init_worker(
    generator: EnsembleGenerator,
    faults: FaultPlan | None,
    board_descriptor: dict | None = None,
) -> None:
    """Install the (already-built) generator and fault plan in a worker."""
    global _WORKER_GENERATOR, _WORKER_FAULTS, _WORKER_BOARD
    _WORKER_GENERATOR = generator
    _WORKER_FAULTS = faults
    _WORKER_BOARD = (
        DepthShardBoard.attach(board_descriptor)
        if board_descriptor is not None
        else None
    )


def _write_shard(index: int, realization) -> object:
    """Write the realization's depth row in place; return a light shard.

    The asset set is validated *in the worker* -- a row with missing or
    extra assets must never land on the board -- and a mismatch raises
    the same retryable :class:`CorruptResultError` the parent would have
    raised.  A payload that is not a realization at all, or one claiming
    a foreign index, is returned unwritten so the parent's validation
    reports it exactly as the pickled transport would (depth *values*
    are also still re-checked parent-side: a non-finite row is caught by
    ``_validate`` and the retry overwrites it).
    """
    board = _WORKER_BOARD
    assert board is not None
    if not isinstance(realization, HurricaneRealization):
        return realization
    if realization.index != index:
        return realization
    depths = realization.inundation.depths_m
    if tuple(depths) != board.asset_names:
        raise CorruptResultError(f"task {index} produced a wrong asset set")
    board.view[index, :] = np.fromiter(
        depths.values(), dtype=np.float64, count=len(board.asset_names)
    )
    return DepthShard(index=index, params=realization.params)


def _run_task(index, attempt, params, rng) -> object:
    assert _WORKER_GENERATOR is not None, "worker pool not initialized"
    if _WORKER_FAULTS is not None:
        _WORKER_FAULTS.apply_before(index, attempt)
    realization = _WORKER_GENERATOR.realize(index, params, rng)
    if _WORKER_FAULTS is not None:
        realization = _WORKER_FAULTS.mangle_result(index, attempt, realization)
    if _WORKER_BOARD is None:
        return realization
    return _write_shard(index, realization)
