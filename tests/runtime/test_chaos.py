"""Chaos suite: the ISSUE's acceptance criteria, proven end to end.

* A run whose workers are killed, hung, and corrupted mid-flight by a
  ``FaultPlan``, then interrupted and resumed via ``resume=True``,
  produces an ensemble bit-identical (depth matrix *and* parameter
  matrix) to an uninterrupted ``n_jobs=1`` run with the same seed.
* A torn cache write (the on-disk half of a ``kill -9``) never yields a
  loadable-but-wrong entry: the file is quarantined and regenerated.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from repro.api import StudyConfig
from repro.errors import RetryExhaustedError, StudyFailureError
from repro.io.results_io import matrix_to_dict
from repro.hazards.hurricane.standard import standard_oahu_generator
from repro.io.atomic import CorruptArtifactWarning
from repro.io.ensemble_cache import (
    load_ensemble_cache,
    params_to_row,
    save_ensemble_cache,
)
from repro.hazards.fragility import ThresholdFragility
from repro.io.shared_ensemble import attach_shared_ensemble
from repro.obs.observer import Observability, activate
from repro.runtime.controller import RetryPolicy
from repro.runtime.faults import FaultPlan
from repro.sweep import run_sweep, sweep_grid

COUNT = 24
SEED = 20220522

FAST = RetryPolicy(
    max_retries=3,
    backoff_base_s=0.01,
    backoff_cap_s=0.05,
    poll_interval_s=0.02,
    task_timeout_s=2.0,
)

NO_RETRY = RetryPolicy(
    max_retries=0,
    backoff_base_s=0.01,
    backoff_cap_s=0.02,
    poll_interval_s=0.02,
)


@pytest.fixture(scope="module")
def generator():
    return standard_oahu_generator()


@pytest.fixture(scope="module")
def oracle(generator):
    """The uninterrupted single-process run every chaos run must equal."""
    return generator.generate(count=COUNT, seed=SEED, n_jobs=1)


def param_matrix(ensemble) -> np.ndarray:
    return np.array([params_to_row(r.params) for r in ensemble.realizations])


class TestCompoundChaos:
    def test_killed_hung_corrupted_then_resumed_is_bit_identical(
        self, generator, oracle, tmp_path
    ):
        """The headline guarantee, end to end.

        Phase 1 throws every fault type at the run at once -- a worker
        kill (pool collapse), a hang (task timeout), a corrupt payload
        (validation), and an unrecoverable crash that interrupts the run
        partway.  Phase 2 resumes from the surviving shards with clean
        workers and must reproduce the oracle bit-for-bit.

        The 24 rows are one generation block, so each collapse or timeout
        charges every row once: the kill fires on attempt 0, the hang on
        attempt 1 (``times=2``) and the corrupt payload on attempt 2
        (``times=3``).
        """
        chaos = (
            FaultPlan()
            .kill(2, times=1)
            .hang(7, times=2, hang_s=30.0)
            .corrupt(11, times=3)
            .crash(21, times=99)  # unrecoverable: interrupts the run
        )
        with activate(Observability()) as obs, pytest.raises(RetryExhaustedError):
            generator.generate(
                count=COUNT,
                seed=SEED,
                n_jobs=2,
                cache_dir=str(tmp_path),
                faults=chaos,
                retry=FAST,
            )
        charges = {(e["realization"], e["error"]) for e in obs.events.of_kind("retry")}
        assert (2, "WorkerCrashError") in charges  # the kill's pool collapse
        assert (7, "WorkerTimeoutError") in charges
        assert (11, "CorruptResultError") in charges
        assert (21, "WorkerCrashError") in charges
        assert obs.metrics.counter("runtime.pool_rebuilds") == 2
        # The interrupted run left checkpoint shards, not a cache entry.
        run_dirs = [p for p in tmp_path.iterdir() if p.name.startswith("run-")]
        assert len(run_dirs) == 1
        assert any(p.name.startswith("shard-") for p in run_dirs[0].iterdir())
        assert load_ensemble_cache(tmp_path, generator.cache_key(COUNT, SEED)) is None

        resumed = generator.generate(
            count=COUNT,
            seed=SEED,
            n_jobs=2,
            cache_dir=str(tmp_path),
            resume=True,
            retry=FAST,
        )
        assert np.array_equal(resumed.depth_matrix(), oracle.depth_matrix())
        assert np.array_equal(param_matrix(resumed), param_matrix(oracle))
        # Success promoted the run to a cache entry and removed the shards.
        assert not run_dirs[0].exists()

    def test_resume_with_corrupted_shard_still_bit_identical(
        self, generator, oracle, tmp_path
    ):
        """Disk chaos on top of worker chaos: a shard is torn post-crash."""
        chaos = FaultPlan().crash(20, times=99)
        with pytest.raises(RetryExhaustedError):
            generator.generate(
                count=COUNT, seed=SEED, n_jobs=2,
                cache_dir=str(tmp_path), faults=chaos, retry=FAST,
            )
        run_dir = next(p for p in tmp_path.iterdir() if p.name.startswith("run-"))
        shard = sorted(p for p in run_dir.iterdir() if p.name.startswith("shard-"))[0]
        FaultPlan(seed=13).corrupt_file(shard)

        with pytest.warns(CorruptArtifactWarning):
            resumed = generator.generate(
                count=COUNT, seed=SEED, n_jobs=2,
                cache_dir=str(tmp_path), resume=True, retry=FAST,
            )
        assert np.array_equal(resumed.depth_matrix(), oracle.depth_matrix())
        assert np.array_equal(param_matrix(resumed), param_matrix(oracle))

    def test_resume_of_untouched_run_regenerates_from_scratch(
        self, generator, oracle, tmp_path
    ):
        """resume=True with no prior run is just a normal (cached) run."""
        ensemble = generator.generate(
            count=COUNT, seed=SEED, cache_dir=str(tmp_path), resume=True
        )
        assert np.array_equal(ensemble.depth_matrix(), oracle.depth_matrix())


class TestTornCacheWrites:
    def test_torn_npz_is_quarantined_and_regenerated(
        self, generator, oracle, tmp_path
    ):
        """kill -9 mid-write simulation on the final cache artifact."""
        key = generator.cache_key(COUNT, SEED)
        npz_path = save_ensemble_cache(oracle, tmp_path, key)
        FaultPlan().truncate_file(npz_path, keep_fraction=0.4)

        with pytest.warns(CorruptArtifactWarning):
            miss = load_ensemble_cache(tmp_path, key)
        assert miss is None
        assert not npz_path.exists()
        assert npz_path.with_name(npz_path.name + ".corrupt").exists()

        regenerated = generator.generate(
            count=COUNT, seed=SEED, cache_dir=str(tmp_path)
        )
        assert np.array_equal(regenerated.depth_matrix(), oracle.depth_matrix())
        # The cache entry is whole again and loads clean.
        reloaded = load_ensemble_cache(tmp_path, key)
        assert reloaded is not None
        assert np.array_equal(reloaded.depth_matrix(), oracle.depth_matrix())

    def test_interrupted_atomic_write_leaves_previous_entry_intact(
        self, generator, oracle, tmp_path
    ):
        """A writer killed before the rename never touches the live file."""
        from repro.io.atomic import atomic_path

        key = generator.cache_key(COUNT, SEED)
        npz_path = save_ensemble_cache(oracle, tmp_path, key)
        before = npz_path.read_bytes()

        class Killed(BaseException):
            pass

        with pytest.raises(Killed):
            with atomic_path(npz_path) as tmp:
                tmp.write_bytes(b"partial garbage")
                raise Killed()  # the simulated kill -9 mid-write
        assert npz_path.read_bytes() == before
        assert list(tmp_path.glob("*.tmp")) == []
        assert load_ensemble_cache(tmp_path, key) is not None


class ExplodingFragility(ThresholdFragility):
    """Deterministic fragility that detonates inside the worker."""

    def failure_matrix(self, depths):
        raise RuntimeError("chaos: fragility exploded in the worker")

    def failed_assets(self, depths_m, rng=None):
        raise RuntimeError("chaos: fragility exploded in the worker")


@dataclass(frozen=True)
class CrashOnceFragility(ThresholdFragility):
    """Kills its whole worker process the first time it is evaluated.

    The sentinel file makes the crash one-shot across process
    boundaries: the first evaluation writes it and ``os._exit``\\ s (a
    real worker death -- no exception, no cleanup), so the pool
    collapses with ``BrokenProcessPool``; the supervised retry finds the
    sentinel and computes the normal threshold rule, bit-identical to
    plain :class:`ThresholdFragility`.
    """

    sentinel: str = ""

    def _crash_once(self) -> None:
        if not os.path.exists(self.sentinel):
            Path(self.sentinel).write_text("worker died here")
            os._exit(1)

    def failure_matrix(self, depths):
        self._crash_once()
        return super().failure_matrix(depths)

    def failed_assets(self, depths_m, rng=None):
        self._crash_once()
        return super().failed_assets(depths_m, rng)


@dataclass(frozen=True)
class FlakyOnceFragility(ThresholdFragility):
    """Raises (an ordinary exception) on first evaluation, then recovers."""

    sentinel: str = ""

    def _fail_once(self) -> None:
        if not os.path.exists(self.sentinel):
            Path(self.sentinel).write_text("failed here")
            raise RuntimeError("chaos: transient fragility failure")

    def failure_matrix(self, depths):
        self._fail_once()
        return super().failure_matrix(depths)

    def failed_assets(self, depths_m, rng=None):
        self._fail_once()
        return super().failed_assets(depths_m, rng)


class TestSharedMemorySegments:
    """The sweep engine may not leak shm segments, whatever kills it."""

    def _grid(self):
        return sweep_grid(
            StudyConfig(n_realizations=30), configurations=["2", "2-2"]
        )

    def _spy_publish(self, monkeypatch):
        import repro.sweep.engine as engine

        published: list[dict] = []
        real = engine.publish_shared_ensemble

        def spying(ensemble):
            handle = real(ensemble)
            if handle is not None:
                published.append(handle.descriptor)
            return handle

        monkeypatch.setattr(engine, "publish_shared_ensemble", spying)
        return published

    def test_keyboard_interrupt_unlinks_the_segment(self, monkeypatch):
        import repro.sweep.engine as engine

        published = self._spy_publish(monkeypatch)

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt  # the simulated ^C mid-pool
            yield  # pragma: no cover - marks this as a generator stand-in

        monkeypatch.setattr(engine, "_run_pool", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_sweep(self._grid(), jobs=2)
        assert len(published) == 1
        with pytest.raises(FileNotFoundError):
            attach_shared_ensemble(published[0])

    def test_worker_failure_unlinks_the_segment(self, monkeypatch):
        published = self._spy_publish(monkeypatch)
        grid = [
            c.replace(fragility=ExplodingFragility()) for c in self._grid()
        ]
        # Strict mode (the default) still surfaces the failure -- now as
        # a StudyFailureError naming the study, chaining the original.
        with pytest.raises(StudyFailureError, match="fragility exploded"):
            run_sweep(grid, jobs=2, retry=NO_RETRY)
        assert len(published) == 1
        with pytest.raises(FileNotFoundError):
            attach_shared_ensemble(published[0])

    def test_completed_sweep_leaves_no_live_handles(self):
        from repro.io.shared_ensemble import _LIVE

        before = set(_LIVE)
        result = run_sweep(self._grid(), jobs=2)
        assert len(result) == 2
        assert set(_LIVE) == before


def _small_grid():
    return sweep_grid(
        StudyConfig(n_realizations=30), configurations=["2", "2-2"]
    )


class TestSupervisedSweepChaos:
    """Sweep-level fault isolation: the ISSUE's supervisor guarantees."""

    def test_killed_sweep_worker_is_retried_and_sweep_completes(
        self, tmp_path
    ):
        """A worker hard-killed mid-study costs a retry, never the sweep."""
        grid = _small_grid()
        chaos = list(grid)
        chaos[1] = chaos[1].replace(
            fragility=CrashOnceFragility(sentinel=str(tmp_path / "crashed"))
        )
        result = run_sweep(chaos, jobs=2, retry=FAST)
        assert len(result) == 2
        assert result.ok
        # The retried study's numbers are the plain threshold rule's.
        clean = run_sweep(grid, jobs=1)
        for cell, expected in zip(result.cells, clean.cells):
            assert matrix_to_dict(cell.matrix) == matrix_to_dict(
                expected.matrix
            )
        counters = result.observability.metrics.snapshot()["counters"]
        assert counters["supervisor.pool_rebuilds"] >= 1
        assert counters["supervisor.study_retries"] >= 1
        assert counters["sweep.studies_completed"] == 2

    def test_poison_study_fails_alone_with_partial_results(self):
        """strict=False: one poisoned cell, every other cell still lands."""
        grid = _small_grid()
        chaos = list(grid)
        chaos[1] = chaos[1].replace(fragility=ExplodingFragility())
        result = run_sweep(chaos, jobs=2, strict=False, retry=FAST)
        assert not result.ok
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert failure.position == 1
        assert failure.error_type == "RuntimeError"
        assert "fragility exploded" in failure.message
        # The unexpected error was retried per policy before giving up.
        assert failure.attempts == FAST.max_retries + 1
        # Fault isolation: the healthy study completed bit-identically.
        assert len(result.cells) == 1
        clean = run_sweep(grid, jobs=1)
        assert matrix_to_dict(result.cells[0].matrix) == matrix_to_dict(
            clean.cells[0].matrix
        )
        # The failure is on the manifest's telemetry side, never in the
        # deterministic (resume-identity) section.
        recorded = result.manifest["telemetry"]["failures"]
        assert [f["position"] for f in recorded] == [1]
        counters = result.observability.metrics.snapshot()["counters"]
        assert counters["sweep.studies_failed"] == 1

    def test_failed_study_reruns_on_resume_bit_identically(self, tmp_path):
        """A partial sweep + resume equals an uninterrupted sweep."""
        from tests.sweep.test_engine import manifest_identity

        sentinel = tmp_path / "flaked"
        grid = [
            c.replace(
                fragility=FlakyOnceFragility(sentinel=str(sentinel))
            )
            for c in _small_grid()
        ]
        sweep_dir = tmp_path / "sweep"
        partial = run_sweep(
            grid,
            jobs=1,
            sweep_dir=sweep_dir,
            strict=False,
            retry=NO_RETRY,
        )
        # The first study flaked (writing the sentinel); with retries off
        # it is a recorded failure and only the second study checkpointed.
        assert len(partial.failures) == 1
        assert len(partial.cells) == 1

        resumed = run_sweep(
            grid, jobs=1, sweep_dir=sweep_dir, resume=True, retry=NO_RETRY
        )
        assert resumed.ok
        assert len(resumed) == 2
        resumed_flags = {
            cell.study_hash: cell.resumed for cell in resumed.cells
        }
        assert sorted(resumed_flags.values()) == [False, True]

        # An uninterrupted run of the same (now-calm) grid is identical
        # outside the telemetry section.
        fresh = run_sweep(grid, jobs=1, sweep_dir=tmp_path / "fresh")
        assert manifest_identity(resumed.manifest) == manifest_identity(
            fresh.manifest
        )
        for cell, expected in zip(resumed.cells, fresh.cells):
            assert matrix_to_dict(cell.matrix) == matrix_to_dict(
                expected.matrix
            )

    def test_stale_shared_descriptor_falls_back_to_regeneration(
        self, monkeypatch
    ):
        """Workers attaching to a vanished shm segment regenerate instead.

        ``attach_shared_ensemble`` is patched to raise before the pool
        forks, so every worker inherits the fault (fork start method).
        The grid's hazard data comes from the standard generator, so the
        fallback path is legal and must reproduce the shared grid's
        numbers exactly.
        """
        import repro.sweep.engine as engine

        def stale(descriptor):
            raise FileNotFoundError("chaos: shm segment unlinked under us")

        monkeypatch.setattr(engine, "attach_shared_ensemble", stale)
        grid = _small_grid()
        result = run_sweep(grid, jobs=2, retry=NO_RETRY)
        assert result.ok
        assert len(result) == 2
        counters = result.observability.metrics.snapshot()["counters"]
        assert counters["sweep.ensemble.attach_fallback"] >= 1
        clean = run_sweep(grid, jobs=1)
        for cell, expected in zip(result.cells, clean.cells):
            assert matrix_to_dict(cell.matrix) == matrix_to_dict(
                expected.matrix
            )

    def test_stale_descriptor_without_regeneration_path_is_fatal(
        self, monkeypatch, tmp_path
    ):
        """Prebuilt hazard data cannot be regenerated inside a worker."""
        import repro.sweep.engine as engine
        from repro.hazards.hurricane.standard import standard_oahu_generator

        def stale(descriptor):
            raise FileNotFoundError("chaos: shm segment unlinked under us")

        monkeypatch.setattr(engine, "attach_shared_ensemble", stale)
        ensemble = standard_oahu_generator().generate(count=30, seed=7)
        grid = [c.replace(ensemble=ensemble) for c in _small_grid()]
        with pytest.raises(StudyFailureError, match="no regeneration path"):
            run_sweep(grid, jobs=2, retry=NO_RETRY)
