"""The in-place shared-memory generation transport.

Pooled runs now default to workers writing each realization's depth row
straight into a parent-owned :class:`DepthShardBoard` and returning only
a light :class:`DepthShard` payload.  These tests pin the transport's
guarantees: bitwise identity with both the pickled baseline and the
inline oracle, the board's rows as the ensemble's matrix, in-worker asset-set
validation, and fault-tolerance parity (a corrupt row is caught by the
same validation path and overwritten by the retry).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import CorruptResultError, RuntimeControlError
from repro.hazards.hurricane.ensemble import params_from_row
from repro.hazards.hurricane.standard import standard_oahu_generator
from repro.io.shared_ensemble import DepthShardBoard
from repro.runtime import controller as controller_mod
from repro.runtime.controller import DepthShard, RetryPolicy, RunController
from repro.runtime.faults import FaultPlan

COUNT = 12
SEED = 9090
FAST = dict(backoff_base_s=0.01, backoff_cap_s=0.05, poll_interval_s=0.02)


@pytest.fixture(scope="module")
def generator():
    return standard_oahu_generator()


@pytest.fixture(scope="module")
def oracle(generator):
    """The unsupervised serial reference."""
    params = generator.sample_all_parameters(COUNT, SEED)
    rngs = generator._realization_rngs(COUNT, SEED)
    return [
        generator.realize(i, params_from_row(p), rng)
        for i, (p, rng) in enumerate(zip(params, rngs))
    ]


def _depths(realizations) -> np.ndarray:
    names = list(realizations[0].inundation.depths_m)
    return np.array([[r.inundation.depths_m[n] for n in names] for r in realizations])


class TestTransportSelection:
    def test_unknown_transport_rejected(self, generator):
        with pytest.raises(RuntimeControlError, match="transport"):
            RunController(generator, COUNT, SEED, transport="carrier-pigeon")

    def test_forced_inplace_needs_asset_order(self, generator):
        class Bare:
            catalog = ()
            scenario = generator.scenario

        with pytest.raises(RuntimeControlError, match="asset_order"):
            RunController(Bare(), COUNT, SEED, transport="inplace")


class TestBitwiseIdentity:
    def test_inplace_pickle_and_inline_agree(self, generator, oracle):
        inline = RunController(generator, COUNT, SEED, n_jobs=1).run()
        inplace = RunController(
            generator, COUNT, SEED, n_jobs=3, transport="inplace"
        ).run()
        pickled = RunController(
            generator, COUNT, SEED, n_jobs=3, transport="pickle"
        ).run()
        reference = _depths(oracle)
        for ensemble in (inline, inplace, pickled):
            assert np.array_equal(ensemble.depth_matrix(), reference)
        assert [r.params for r in inplace] == [r.params for r in pickled]
        assert [r.index for r in inplace] == list(range(COUNT))

    def test_inplace_primes_the_depth_cache(self, generator, oracle):
        """The board's rows become the ensemble's depth matrix."""
        ensemble = RunController(
            generator, COUNT, SEED, n_jobs=2, transport="inplace"
        ).run()
        primed = ensemble.depth_view()
        assert np.array_equal(primed, _depths(oracle))
        assert ensemble.asset_names == list(generator.asset_order)
        # The matrix must be private memory: the segment is gone by now.
        owner = primed
        while isinstance(owner.base, np.ndarray):
            owner = owner.base
        assert owner.flags.owndata

    def test_pickled_transport_stays_lazy(self, generator):
        """No realization objects are built until someone asks for one."""
        ensemble = RunController(
            generator, COUNT, SEED, n_jobs=2, transport="pickle"
        ).run()
        assert ensemble._cache is None
        assert ensemble[3].index == 3


class TestFaultParity:
    def test_corrupt_row_is_caught_and_overwritten(self, generator, oracle):
        plan = FaultPlan().corrupt(5, times=1)
        ctl = RunController(
            generator, COUNT, SEED, n_jobs=2, transport="inplace",
            policy=RetryPolicy(max_retries=2, **FAST), faults=plan,
        )
        ensemble = ctl.run()
        assert ctl.retries_by_index[5] == 1
        assert np.array_equal(ensemble.depth_matrix(), _depths(oracle))
        assert np.isfinite(ensemble.depth_view()).all()

    def test_killed_worker_survives_on_inplace_transport(self, generator, oracle):
        plan = FaultPlan().kill(3, times=1)
        ctl = RunController(
            generator, COUNT, SEED, n_jobs=2, transport="inplace",
            policy=RetryPolicy(max_retries=3, **FAST), faults=plan,
        )
        ensemble = ctl.run()
        assert ctl.pool_rebuilds >= 1
        assert np.array_equal(ensemble.depth_matrix(), _depths(oracle))


class TestShardWrite:
    """The worker-side write guard, exercised in-process."""

    def _with_board(self, monkeypatch, names):
        board = DepthShardBoard.create(4, names)
        monkeypatch.setattr(controller_mod, "_WORKER_BOARD", board)
        return board

    def test_wrong_asset_set_raises_retryable_in_worker(
        self, monkeypatch, generator, oracle
    ):
        board = self._with_board(monkeypatch, ("only", "two"))
        try:
            with pytest.raises(CorruptResultError, match="asset set"):
                controller_mod._write_shard(1, oracle[1])
            assert not board.view.any()  # nothing landed on the board
        finally:
            board.close()
            board.unlink()

    def test_foreign_index_passes_through_unwritten(
        self, monkeypatch, generator, oracle
    ):
        board = self._with_board(monkeypatch, tuple(generator.asset_order))
        try:
            # Claiming another task's index must not touch that row; the
            # parent's validation then rejects the full payload as before.
            result = controller_mod._write_shard(2, oracle[1])
            assert result is oracle[1]
            assert not board.view.any()
        finally:
            board.close()
            board.unlink()

    def test_good_row_lands_and_returns_a_light_shard(
        self, monkeypatch, generator, oracle
    ):
        board = self._with_board(monkeypatch, tuple(generator.asset_order))
        try:
            shard = controller_mod._write_shard(1, oracle[1])
            assert isinstance(shard, DepthShard)
            assert shard.index == 1 and shard.params == oracle[1].params
            row = [oracle[1].inundation.depths_m[n] for n in generator.asset_order]
            assert np.array_equal(board.view[1], np.array(row))
        finally:
            board.close()
            board.unlink()


class TestBoardRoundTrip:
    def test_attach_sees_owner_writes_and_vice_versa(self):
        board = DepthShardBoard.create(3, ("x", "y"))
        try:
            attached = DepthShardBoard.attach(board.descriptor)
            attached.view[2, :] = (1.5, 2.5)
            assert board.view[2].tolist() == [1.5, 2.5]
            board.view[0, 1] = 4.0
            assert attached.view[0].tolist() == [0.0, 4.0]
            attached.close()
        finally:
            board.close()
            board.unlink()
