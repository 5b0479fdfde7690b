"""Checkpoint shards: atomicity, integrity verification, quarantine."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.io.atomic import CorruptArtifactWarning
from repro.runtime.checkpoint import CheckpointStore, sha256_of
from repro.runtime.faults import FaultPlan

COUNT = 20
SEED = 1234
SHARD = 8


@pytest.fixture(scope="module")
def generator():
    from repro.hazards.hurricane.standard import standard_oahu_generator

    return standard_oahu_generator()


@pytest.fixture(scope="module")
def realizations(generator):
    """The run's rows: (index, depth row, parameter row) per realization."""
    ensemble = generator.generate(COUNT, SEED)
    depths, params = ensemble.depth_matrix(), ensemble.parameter_view()
    return [(i, depths[i:i + 1], params[i:i + 1]) for i in range(COUNT)]


@pytest.fixture(scope="module")
def expected_params(generator):
    return generator.sample_all_parameters(COUNT, SEED)


def record(store: CheckpointStore, rows) -> None:
    """Record realizations one row at a time, as the pooled pass does."""
    for index, depth_row, param_row in rows:
        store.record([index], depth_row, param_row)


def make_store(tmp_path, **overrides) -> CheckpointStore:
    from repro.hazards.hurricane.standard import shared_standard_generator

    defaults = dict(
        run_dir=tmp_path / "run-abc",
        key="abc",
        count=COUNT,
        seed=SEED,
        scenario_name="oahu-cat2",
        asset_names=shared_standard_generator().asset_order,
        shard_size=SHARD,
    )
    defaults.update(overrides)
    return CheckpointStore(**defaults)


class TestRoundTrip:
    def test_full_run_round_trips_bitwise(self, tmp_path, realizations, expected_params):
        store = make_store(tmp_path)
        record(store, realizations)
        store.flush()
        assert store.is_complete()

        fresh = make_store(tmp_path)
        loaded = fresh.load(expected_params=expected_params)
        assert sorted(loaded) == list(range(COUNT))
        for index, depth_row, param_row in realizations:
            assert np.array_equal(fresh.params[index], param_row[0])
            assert np.array_equal(fresh.depths[index], depth_row[0])

    def test_partial_progress_survives(self, tmp_path, realizations, expected_params):
        store = make_store(tmp_path)
        # Complete one full block and a sliver of another, out of order.
        record(store, realizations[:SHARD] + [realizations[SHARD + 2]])
        store.flush()

        loaded = make_store(tmp_path).load(expected_params=expected_params)
        assert sorted(loaded) == list(range(SHARD)) + [SHARD + 2]

    def test_no_tmp_siblings_after_flush(self, tmp_path, realizations):
        store = make_store(tmp_path)
        record(store, realizations)
        store.flush()
        leftovers = list(store.run_dir.glob("*.tmp"))
        assert leftovers == []

    def test_duplicate_records_are_idempotent(self, tmp_path, realizations):
        store = make_store(tmp_path)
        record(store, realizations[:1])
        record(store, realizations[:1])
        assert store.completed_indices() == frozenset({0})


class TestIntegrity:
    def _full_store(self, tmp_path, realizations) -> CheckpointStore:
        store = make_store(tmp_path)
        record(store, realizations)
        store.flush()
        return store

    def test_corrupted_shard_is_quarantined_not_loaded(
        self, tmp_path, realizations, expected_params
    ):
        store = self._full_store(tmp_path, realizations)
        victim = store.shard_path(0)
        FaultPlan(seed=1).corrupt_file(victim)

        fresh = make_store(tmp_path)
        with pytest.warns(CorruptArtifactWarning):
            loaded = fresh.load(expected_params=expected_params)
        # Block 0 lost, quarantined; the others intact.
        assert sorted(loaded) == list(range(SHARD, COUNT))
        assert not victim.exists()
        assert victim.with_name(victim.name + ".corrupt").exists()

    def test_truncated_shard_is_quarantined(
        self, tmp_path, realizations, expected_params
    ):
        store = self._full_store(tmp_path, realizations)
        FaultPlan().truncate_file(store.shard_path(1), keep_fraction=0.3)
        with pytest.warns(CorruptArtifactWarning):
            loaded = make_store(tmp_path).load(expected_params=expected_params)
        assert sorted(loaded) == list(range(SHARD)) + list(range(2 * SHARD, COUNT))

    def test_mangled_manifest_means_empty_resume(
        self, tmp_path, realizations, expected_params
    ):
        store = self._full_store(tmp_path, realizations)
        store.manifest_path.write_text("{ not json")
        with pytest.warns(CorruptArtifactWarning):
            loaded = make_store(tmp_path).load(expected_params=expected_params)
        assert len(loaded) == 0

    def test_manifest_for_other_run_is_rejected(
        self, tmp_path, realizations, expected_params
    ):
        store = self._full_store(tmp_path, realizations)
        manifest = json.loads(store.manifest_path.read_text())
        manifest["seed"] = SEED + 1
        store.manifest_path.write_text(json.dumps(manifest))
        with pytest.warns(CorruptArtifactWarning):
            loaded = make_store(tmp_path).load(expected_params=expected_params)
        assert len(loaded) == 0

    def test_parameter_drift_is_detected(self, tmp_path, realizations, generator):
        """Stored parameter rows must match the serial pass bit-for-bit."""
        self._full_store(tmp_path, realizations)
        drifted = generator.sample_all_parameters(COUNT, SEED + 1)
        with pytest.warns(CorruptArtifactWarning):
            loaded = make_store(tmp_path).load(expected_params=drifted)
        assert len(loaded) == 0

    @pytest.mark.parametrize("array", ["depths", "params"])
    def test_non_finite_shard_is_quarantined(self, tmp_path, realizations, array):
        """A shard that decodes and checksums but holds a NaN is corrupt."""
        store = self._full_store(tmp_path, realizations)
        victim = store.shard_path(1)
        with np.load(victim) as data:
            arrays = dict(data)
        arrays[array][3, 2] = np.nan
        with victim.open("wb") as handle:
            np.savez_compressed(handle, **arrays)
        manifest = json.loads(store.manifest_path.read_text())
        manifest["shards"]["1"]["sha256"] = sha256_of(victim)
        store.manifest_path.write_text(json.dumps(manifest))
        with pytest.warns(CorruptArtifactWarning, match="non-finite"):
            loaded = make_store(tmp_path).load()
        assert sorted(loaded) == list(range(SHARD)) + list(range(2 * SHARD, COUNT))
        assert victim.with_name(victim.name + ".corrupt").exists()

    def test_missing_shard_file_is_tolerated(
        self, tmp_path, realizations, expected_params
    ):
        store = self._full_store(tmp_path, realizations)
        store.shard_path(0).unlink()
        loaded = make_store(tmp_path).load(expected_params=expected_params)
        assert sorted(loaded) == list(range(SHARD, COUNT))


class TestLifecycle:
    def test_reset_wipes_disk_state(self, tmp_path, realizations):
        store = make_store(tmp_path)
        record(store, realizations)
        store.flush()
        store.reset()
        assert not store.run_dir.exists()
        assert len(make_store(tmp_path).load()) == 0

    def test_discard_removes_run_dir(self, tmp_path, realizations):
        store = make_store(tmp_path)
        record(store, realizations[:1])
        store.flush()
        store.discard()
        assert not store.run_dir.exists()

    def test_block_completion_flushes_automatically(self, tmp_path, realizations):
        store = make_store(tmp_path)
        record(store, realizations[:SHARD])
        # The completed block hit the disk without an explicit flush().
        assert store.shard_path(0).exists()
