"""The on-disk ensemble cache: exact round-trips, corruption, staleness."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import SerializationError
from repro.io.atomic import CorruptArtifactWarning
from repro.hazards.hurricane.standard import standard_oahu_generator
from repro.io.ensemble_cache import (
    ensemble_cache_key,
    load_ensemble_cache,
    save_ensemble_cache,
)

COUNT = 24
SEED = 4242


@pytest.fixture(scope="module")
def generator():
    return standard_oahu_generator()


@pytest.fixture(scope="module")
def ensemble(generator):
    return generator.generate(count=COUNT, seed=SEED)


class TestRoundTrip:
    def test_loaded_ensemble_is_bit_identical(self, generator, ensemble, tmp_path):
        key = generator.cache_key(COUNT, SEED)
        save_ensemble_cache(ensemble, tmp_path, key)
        loaded = load_ensemble_cache(tmp_path, key)
        assert loaded is not None
        assert loaded.scenario_name == ensemble.scenario_name
        assert loaded.seed == ensemble.seed
        assert loaded.asset_names == ensemble.asset_names
        assert np.array_equal(loaded.depth_matrix(), ensemble.depth_matrix())
        for a, b in zip(ensemble, loaded):
            assert a.index == b.index
            assert a.params == b.params

    def test_generate_with_cache_dir_hits_on_second_call(self, generator, tmp_path):
        first = generator.generate(count=COUNT, seed=SEED, cache_dir=str(tmp_path))
        assert list(tmp_path.iterdir())  # entry written
        second = generator.generate(count=COUNT, seed=SEED, cache_dir=str(tmp_path))
        assert np.array_equal(first.depth_matrix(), second.depth_matrix())

    def test_missing_entry_is_a_miss(self, tmp_path):
        assert load_ensemble_cache(tmp_path, "0" * 32) is None

    def test_unwritable_cache_dir_raises_cleanly(self, ensemble, tmp_path):
        blocking_file = tmp_path / "not-a-directory"
        blocking_file.write_text("")
        with pytest.raises(SerializationError):
            save_ensemble_cache(ensemble, blocking_file, "0" * 32)


class TestInvalidation:
    def test_key_changes_with_every_input(self, generator):
        base = generator.cache_key(COUNT, SEED)
        assert generator.cache_key(COUNT + 1, SEED) != base
        assert generator.cache_key(COUNT, SEED + 1) != base
        other_key = ensemble_cache_key(
            scenario=generator.scenario,
            surge_params=generator.surge_params,
            extension_params=generator.extension_params,
            mesh_spacing_km=generator.mesh_spacing_km + 0.5,
            count=COUNT,
            seed=SEED,
        )
        assert other_key != base

    def test_corrupted_npz_is_regenerated(self, generator, ensemble, tmp_path):
        key = generator.cache_key(COUNT, SEED)
        npz_path = save_ensemble_cache(ensemble, tmp_path, key)
        npz_path.write_bytes(b"not a zip archive")
        assert load_ensemble_cache(tmp_path, key) is None
        # generate() regenerates and overwrites the bad entry in place.
        regenerated = generator.generate(count=COUNT, seed=SEED, cache_dir=str(tmp_path))
        assert np.array_equal(regenerated.depth_matrix(), ensemble.depth_matrix())
        assert load_ensemble_cache(tmp_path, key) is not None

    def test_mangled_sidecar_is_a_miss(self, generator, ensemble, tmp_path):
        key = generator.cache_key(COUNT, SEED)
        npz_path = save_ensemble_cache(ensemble, tmp_path, key)
        meta_path = npz_path.with_suffix(".json")
        meta_path.write_text("{ this is not json")
        assert load_ensemble_cache(tmp_path, key) is None

    def test_stale_format_version_is_a_miss(self, generator, ensemble, tmp_path):
        key = generator.cache_key(COUNT, SEED)
        npz_path = save_ensemble_cache(ensemble, tmp_path, key)
        meta_path = npz_path.with_suffix(".json")
        meta = json.loads(meta_path.read_text())
        meta["format"] = -1
        meta_path.write_text(json.dumps(meta))
        assert load_ensemble_cache(tmp_path, key) is None

    def test_shape_mismatch_is_a_miss(self, generator, ensemble, tmp_path):
        key = generator.cache_key(COUNT, SEED)
        npz_path = save_ensemble_cache(ensemble, tmp_path, key)
        meta_path = npz_path.with_suffix(".json")
        meta = json.loads(meta_path.read_text())
        meta["count"] = COUNT + 1
        meta_path.write_text(json.dumps(meta))
        assert load_ensemble_cache(tmp_path, key) is None

    @pytest.mark.parametrize("array", ["depths", "params"])
    def test_non_finite_entry_is_quarantined(
        self, generator, ensemble, tmp_path, array
    ):
        key = generator.cache_key(COUNT, SEED)
        npz_path = save_ensemble_cache(ensemble, tmp_path, key)
        with np.load(npz_path) as data:
            arrays = dict(data)
        arrays[array][3, 2] = np.nan
        with npz_path.open("wb") as handle:
            np.savez_compressed(handle, **arrays)
        with pytest.warns(CorruptArtifactWarning, match="non-finite"):
            assert load_ensemble_cache(tmp_path, key) is None
        assert npz_path.with_name(npz_path.name + ".corrupt").exists()
