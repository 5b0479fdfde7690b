"""Faults at kernel-block boundaries, in process and pooled.

Both run modes run ``generator.block_rows`` pending realizations at a
time through one block function; a pooled run ships each block to a
worker as one task.  A fault on any row of a block -- its first, a
middle or its last row, or a row of the ragged last block -- is charged
by the controller's rules:

* a crash or a corrupt row is charged to that row once per scripted
  firing, in both modes (in process, a kill is downgraded to a crash and
  a hang raises after a short sleep);
* pooled, a kill collapses the pool and a hang outlives the task
  timeout; either charges each unsettled row of the blocks it takes down
  once.

The retried rows come out bit-identical to an unfaulted run, and a run
interrupted partway through a block resumes from its checkpoint to the
same bits.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import RetryExhaustedError
from repro.hazards.hurricane.standard import standard_oahu_generator
from repro.hazards.hurricane.ensemble import params_from_row, params_to_row
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.controller import RetryPolicy, RunController
from repro.runtime.faults import FaultPlan

SEED = 4242
FAST = dict(backoff_base_s=0.001, backoff_cap_s=0.002, poll_interval_s=0.02)
#: Pooled runs bound a hung task; well above a block's worst wait.
POOLED = dict(task_timeout_s=2.0)


def in_both_modes(*kinds: str):
    """Parametrize ``kind`` and ``n_jobs``; pooled ids add ``-pooled``."""
    return pytest.mark.parametrize(
        "kind, n_jobs",
        [(kind, 1) for kind in kinds] + [(kind, 2) for kind in kinds],
        ids=[*kinds, *(f"{kind}-pooled" for kind in kinds)],
    )


@pytest.fixture(scope="module")
def generator():
    return standard_oahu_generator()


@pytest.fixture(scope="module")
def rows(generator):
    return generator.block_rows


@pytest.fixture(scope="module")
def count(rows):
    """Two full blocks and a ragged third of three rows."""
    return 2 * rows + 3


@pytest.fixture(scope="module")
def oracle(generator, count):
    """Realization by realization: every row in a block of its own."""
    params = generator.sample_all_parameters(count, SEED)
    rngs = generator._realization_rngs(count, SEED)
    realizations = [
        generator.realize(i, params_from_row(p), rng)
        for i, (p, rng) in enumerate(zip(params, rngs))
    ]
    names = generator.asset_order
    return np.array([[r.inundation.depths_m[n] for n in names] for r in realizations])


def positions(rows: int, count: int) -> dict[str, int]:
    return {
        "first-of-block": rows,
        "middle-of-block": rows + rows // 2,
        "last-of-block": 2 * rows - 1,
        "ragged-first": 2 * rows,
        "ragged-last": count - 1,
    }


def block_of(index: int, rows: int, count: int) -> range:
    start = index - index % rows
    return range(start, min(start + rows, count))


def run(generator, count, plan, n_jobs, **policy):
    if n_jobs > 1:
        policy = {**POOLED, **policy}
    controller = RunController(
        generator, count, SEED, n_jobs=n_jobs,
        policy=RetryPolicy(**{"max_retries": 3, **FAST, **policy}), faults=plan,
    )
    return controller, controller.run()


def test_the_fixture_has_a_ragged_last_block(rows, count):
    assert rows > 2 and count % rows == 3


@in_both_modes("crash", "hang", "corrupt", "kill")
@pytest.mark.parametrize(
    "where",
    ["first-of-block", "middle-of-block", "last-of-block", "ragged-first", "ragged-last"],
)
def test_one_fault_is_charged_once_and_leaves_the_bits(
    generator, rows, count, oracle, kind, where, n_jobs
):
    index = positions(rows, count)[where]
    plan = getattr(FaultPlan(), kind)(index, times=1)
    controller, ensemble = run(generator, count, plan, n_jobs)
    charged = controller.retries_by_index
    if n_jobs == 1 or kind in ("crash", "corrupt"):
        assert charged == {index: 1}
    elif kind == "hang":
        assert charged == dict.fromkeys(block_of(index, rows, count), 1)
    else:
        # The collapse takes down every block in flight with the victim's.
        assert set(charged.values()) == {1}
        assert set(block_of(index, rows, count)) <= set(charged)
        assert all(set(block_of(i, rows, count)) <= set(charged) for i in charged)
    assert np.array_equal(ensemble.depth_matrix(), oracle)


def several_faults(rows: int, count: int) -> FaultPlan:
    """Several faults in one block, one of them firing twice."""
    return (
        FaultPlan()
        .crash(rows, times=2)
        .corrupt(rows + 1, times=1)
        .hang(2 * rows - 1, times=1, hang_s=0.01)
        .corrupt(count - 1, times=2)
    )


def test_every_firing_of_every_row_is_charged(generator, rows, count, oracle):
    controller, ensemble = run(generator, count, several_faults(rows, count), 1)
    assert controller.retries_by_index == {
        rows: 2, rows + 1: 1, 2 * rows - 1: 1, count - 1: 2,
    }
    assert np.array_equal(ensemble.depth_matrix(), oracle)


def test_every_pooled_firing_is_charged_and_a_short_hang_is_none(
    generator, rows, count, oracle
):
    """A worker's hang that ends inside the task timeout is not a fault."""
    controller, ensemble = run(generator, count, several_faults(rows, count), 2)
    assert controller.retries_by_index == {rows: 2, rows + 1: 1, count - 1: 2}
    assert np.array_equal(ensemble.depth_matrix(), oracle)


@in_both_modes("crash", "corrupt")
def test_resume_after_a_mid_block_interrupt_is_bit_identical(
    generator, rows, count, oracle, tmp_path, kind, n_jobs
):
    """A fault no retry can fix stops the run inside the second block.

    A crash stops the block before its row, a corrupt row fails
    validation; either way the rows before it in that block were
    recorded, and the resumed run regenerates exactly the missing rows.
    """
    index = rows + rows // 2
    key = generator.cache_key(count, SEED)

    def store() -> CheckpointStore:
        return CheckpointStore(
            run_dir=tmp_path / f"run-{key}", key=key, count=count, seed=SEED,
            scenario_name=generator.scenario.name,
            asset_names=generator.asset_order, shard_size=4,
        )

    plan = getattr(FaultPlan(), kind)(index, times=99)
    interrupted = RunController(
        generator, count, SEED, n_jobs=n_jobs, faults=plan, checkpoint=store(),
        policy=RetryPolicy(max_retries=0, **FAST),
    )
    with pytest.raises(RetryExhaustedError):
        interrupted.run()
    resumed = RunController(generator, count, SEED, n_jobs=n_jobs, checkpoint=store())
    ensemble = resumed.run(resume=True)
    # Block 0 and the interrupted block's leading rows; pooled, the first
    # and last blocks race the interrupted one, so each may be missing.
    settled = resumed.resumed_realizations - (index - rows)
    if n_jobs == 1:
        assert settled == rows
    else:
        assert settled in {0, rows, count - 2 * rows, count - rows}
    assert np.array_equal(ensemble.depth_matrix(), oracle)
    params = generator.sample_all_parameters(count, SEED)
    assert np.array_equal(
        np.array([params_to_row(r.params) for r in ensemble]),
        params,
    )
