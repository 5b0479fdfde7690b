"""The run controller: retries, timeouts, validation, pool survival."""

from __future__ import annotations

import math
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.errors import (
    HazardError,
    RetryExhaustedError,
    RuntimeControlError,
)
from repro.hazards.hurricane.ensemble import params_from_row
from repro.hazards.hurricane.standard import standard_oahu_generator
from repro.runtime import controller as controller_mod
from repro.runtime.controller import RetryPolicy, RunController, terminate_pool
from repro.runtime.faults import FaultPlan

COUNT = 16
SEED = 555

FAST = dict(backoff_base_s=0.01, backoff_cap_s=0.05, poll_interval_s=0.02)


@pytest.fixture(scope="module")
def generator():
    return standard_oahu_generator()


@pytest.fixture(scope="module")
def reference(generator):
    """The oracle: an unsupervised serial run."""
    params = generator.sample_all_parameters(COUNT, SEED)
    rngs = generator._realization_rngs(COUNT, SEED)
    return [
        generator.realize(i, params_from_row(p), rng)
        for i, (p, rng) in enumerate(zip(params, rngs))
    ]


@pytest.fixture
def small_blocks(generator, monkeypatch):
    """Cut the run into blocks of 3 rows: 6 blocks of ``COUNT``, the last of 1."""
    monkeypatch.setattr(type(generator), "block_rows", property(lambda self: 3))
    assert COUNT % 3


def depths(realizations) -> np.ndarray:
    names = list(realizations[0].inundation.depths_m)
    return np.array([[r.inundation.depths_m[n] for n in names] for r in realizations])


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(backoff_base_s=0.1, backoff_cap_s=0.35)
        assert policy.backoff_s(1) == pytest.approx(0.1)
        assert policy.backoff_s(2) == pytest.approx(0.2)
        assert policy.backoff_s(3) == pytest.approx(0.35)  # capped
        assert policy.backoff_s(10) == pytest.approx(0.35)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"backoff_base_s": -0.1},
            {"task_timeout_s": 0.0},
            {"poll_interval_s": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(RuntimeControlError):
            RetryPolicy(**kwargs)


class TestCleanRuns:
    def test_inline_matches_reference(self, generator, reference):
        controller = RunController(generator, COUNT, SEED, n_jobs=1)
        ensemble = controller.run()
        assert np.array_equal(ensemble.depth_matrix(), depths(reference))

    def test_pooled_matches_reference(self, generator, reference, small_blocks):
        """Every worker count runs several blocks, the last one ragged."""
        for n_jobs in (2, 3, 4):
            controller = RunController(generator, COUNT, SEED, n_jobs=n_jobs)
            ensemble = controller.run()
            # No realization objects are built until someone asks for one.
            assert ensemble._cache is None
            assert np.array_equal(ensemble.depth_matrix(), depths(reference))
            assert controller.pool_rebuilds == 0
            assert controller.retries_by_index == {}
            assert ensemble[3].index == 3

    def test_rejects_bad_dimensions(self, generator):
        with pytest.raises(RuntimeControlError):
            RunController(generator, 0, SEED)
        with pytest.raises(RuntimeControlError):
            RunController(generator, COUNT, SEED, n_jobs=0)


class TestRetries:
    def test_crash_is_retried_inline(self, generator, reference):
        plan = FaultPlan().crash(2, times=2)
        controller = RunController(
            generator, COUNT, SEED, n_jobs=1,
            policy=RetryPolicy(max_retries=3, **FAST), faults=plan,
        )
        ensemble = controller.run()
        assert np.array_equal(ensemble.depth_matrix(), depths(reference))
        assert controller.retries_by_index[2] == 2

    def test_corrupt_payload_is_caught_and_retried(self, generator, reference):
        plan = FaultPlan().corrupt(4, times=1)
        controller = RunController(
            generator, COUNT, SEED, n_jobs=2,
            policy=RetryPolicy(max_retries=2, **FAST), faults=plan,
        )
        ensemble = controller.run()
        assert np.array_equal(ensemble.depth_matrix(), depths(reference))
        assert controller.retries_by_index[4] == 1

    def test_exhausted_retries_raise(self, generator):
        plan = FaultPlan().crash(1, times=99)
        controller = RunController(
            generator, COUNT, SEED, n_jobs=1,
            policy=RetryPolicy(max_retries=1, **FAST), faults=plan,
        )
        with pytest.raises(RetryExhaustedError):
            controller.run()

    def test_fatal_model_error_is_not_retried(self, generator, monkeypatch):
        """A deterministic ReproError from the task surfaces immediately."""

        def explode(params, uniforms, timer=None):
            raise HazardError("deterministic modeling bug")

        monkeypatch.setattr(generator, "realize_block", explode)
        controller = RunController(
            generator, COUNT, SEED, n_jobs=1, policy=RetryPolicy(max_retries=5, **FAST)
        )
        with pytest.raises(HazardError):
            controller.run()
        assert controller.retries_by_index == {}


class TestPoolFaults:
    def test_killed_worker_collapses_pool_but_run_survives(
        self, generator, reference
    ):
        plan = FaultPlan().kill(3, times=1)
        controller = RunController(
            generator, COUNT, SEED, n_jobs=2,
            policy=RetryPolicy(max_retries=3, **FAST), faults=plan,
        )
        ensemble = controller.run()
        assert np.array_equal(ensemble.depth_matrix(), depths(reference))
        assert controller.pool_rebuilds >= 1

    def test_hung_worker_is_timed_out_and_replaced(self, generator, reference):
        plan = FaultPlan().hang(5, times=1, hang_s=60.0)
        controller = RunController(
            generator, COUNT, SEED, n_jobs=2,
            policy=RetryPolicy(max_retries=3, task_timeout_s=1.0, **FAST),
            faults=plan,
        )
        ensemble = controller.run()
        assert np.array_equal(ensemble.depth_matrix(), depths(reference))
        assert controller.pool_rebuilds >= 1
        assert controller.retries_by_index[5] >= 1


class TestPoolScheduling:
    def test_one_task_per_block_and_two_per_worker_in_flight(
        self, generator, monkeypatch
    ):
        """A clean pooled run submits each block once, with a bounded queue."""
        count, n_jobs = 1000, 2
        lock = threading.Lock()
        tally = {"submitted": 0, "in_flight": 0, "peak": 0}

        def finished(_future) -> None:
            with lock:
                tally["in_flight"] -= 1

        class CountingPool(ProcessPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                future = super().submit(fn, *args, **kwargs)
                with lock:
                    tally["submitted"] += 1
                    tally["in_flight"] += 1
                    tally["peak"] = max(tally["peak"], tally["in_flight"])
                future.add_done_callback(finished)
                return future

        monkeypatch.setattr(controller_mod, "ProcessPoolExecutor", CountingPool)
        RunController(generator, count, SEED, n_jobs=n_jobs).run()
        blocks = math.ceil(count / generator.block_rows)
        assert tally["submitted"] == blocks
        assert tally["peak"] <= 2 * min(n_jobs, blocks)


    def test_a_pool_broken_at_submit_charges_only_blocks_in_flight(
        self, generator, reference, small_blocks, monkeypatch
    ):
        """The block whose submit finds the pool broken was never run."""
        pools = []

        class BreaksOnThirdSubmit(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                pools.append(self)
                self.submitted = 0

            def submit(self, fn, /, *args, **kwargs):
                self.submitted += 1
                if len(pools) == 1 and self.submitted == 3:
                    raise BrokenProcessPool("pool broke between submissions")
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(controller_mod, "ProcessPoolExecutor", BreaksOnThirdSubmit)
        controller = RunController(
            generator, COUNT, SEED, n_jobs=2, policy=RetryPolicy(max_retries=1, **FAST)
        )
        ensemble = controller.run()
        assert np.array_equal(ensemble.depth_matrix(), depths(reference))
        assert controller.pool_rebuilds == 1
        # Blocks 0 and 1 (rows 0-5) were in flight; block 2 (rows 6-8) was not.
        assert controller.retries_by_index == {i: 1 for i in range(6)}


def test_terminate_pool_kills_a_hung_worker():
    executor = ProcessPoolExecutor(max_workers=1)
    executor.submit(time.sleep, 60)
    workers = list(executor._processes.values())
    terminate_pool(executor)
    assert workers and not any(worker.is_alive() for worker in workers)
