"""Inline faults at kernel-block boundaries.

The in-process realization pass runs ``realize_block`` over blocks of
``generator.block_rows`` pending realizations.  A fault on any row of a
block -- its first, a middle or its last row, or a row of the ragged
last block -- must be charged to that row exactly once per scripted
firing, and the retried rows must come out bit-identical to an unfaulted
run.  A run interrupted partway through a block must resume from its
checkpoint to the same bits.
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


def run_inline(generator, count, plan, **policy):
    controller = RunController(
        generator, count, SEED, n_jobs=1,
        policy=RetryPolicy(**{"max_retries": 3, **FAST, **policy}), faults=plan,
    )
    return controller, controller.run()


def test_the_fixture_has_a_ragged_last_block(rows, count):
    assert rows > 2 and count % rows == 3


@pytest.mark.parametrize("kind", ["crash", "hang", "corrupt"])
@pytest.mark.parametrize(
    "where",
    ["first-of-block", "middle-of-block", "last-of-block", "ragged-first", "ragged-last"],
)
def test_one_fault_is_charged_once_and_leaves_the_bits(
    generator, rows, count, oracle, kind, where
):
    index = positions(rows, count)[where]
    plan = getattr(FaultPlan(), kind)(index, times=1)
    controller, ensemble = run_inline(generator, count, plan)
    assert controller.retries_by_index == {index: 1}
    assert np.array_equal(ensemble.depth_matrix(), oracle)


def test_every_firing_of_every_row_is_charged(generator, rows, count, oracle):
    """Several faults in one block, one of them firing twice."""
    plan = (
        FaultPlan()
        .crash(rows, times=2)
        .corrupt(rows + 1, times=1)
        .hang(2 * rows - 1, times=1, hang_s=0.01)
        .corrupt(count - 1, times=2)
    )
    controller, ensemble = run_inline(generator, count, plan)
    assert controller.retries_by_index == {
        rows: 2, rows + 1: 1, 2 * rows - 1: 1, count - 1: 2,
    }
    assert np.array_equal(ensemble.depth_matrix(), oracle)


@pytest.mark.parametrize("kind", ["crash", "corrupt"])
def test_resume_after_a_mid_block_interrupt_is_bit_identical(
    generator, rows, count, oracle, tmp_path, kind
):
    """A fault no retry can fix stops the run inside the second block.

    A crash fires before the block's kernel runs, so the rows before it
    in that block are not settled; a corrupt payload fails validation
    after the rows before it were recorded.  Either way the resumed run
    regenerates exactly the missing rows.
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
        generator, count, SEED, n_jobs=1, faults=plan, checkpoint=store(),
        policy=RetryPolicy(max_retries=0, **FAST),
    )
    with pytest.raises(RetryExhaustedError):
        interrupted.run()
    settled = rows if kind == "crash" else index
    resumed = RunController(generator, count, SEED, n_jobs=1, checkpoint=store())
    ensemble = resumed.run(resume=True)
    assert resumed.resumed_realizations == settled
    assert np.array_equal(ensemble.depth_matrix(), oracle)
    params = generator.sample_all_parameters(count, SEED)
    assert np.array_equal(
        np.array([params_to_row(r.params) for r in ensemble]),
        params,
    )
