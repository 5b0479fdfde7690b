"""Shared-memory / mmap ensemble transport: fidelity and lifecycle."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SerializationError
from repro.hazards.columnar import depth_grid
from repro.hazards.fragility import ThresholdFragility
from repro.io.ensemble_cache import (
    save_ensemble_cache,
    shared_depth_descriptor,
    shared_depths_path,
)
from repro.io.shared_ensemble import (
    ArrayBackedEnsemble,
    attach_shared_ensemble,
    publish_shared_ensemble,
)


def _array_ensemble(n=8, n_assets=3, seed=11):
    rng = np.random.default_rng(seed)
    names = [f"asset-{i}" for i in range(n_assets)]
    return ArrayBackedEnsemble(
        scenario_name="transport-test",
        depths=rng.uniform(0.0, 1.2, size=(n, n_assets)),
        asset_names=names,
        seed=seed,
    )


# ----------------------------------------------------------------------
# The depth-grid probe (row/matrix agreement is in the family contract,
# tests/hazards/test_hazard_families.py)
# ----------------------------------------------------------------------
def test_depth_grid_probe():
    ensemble = _array_ensemble()
    names, depths = depth_grid(ensemble)
    assert names == ensemble.asset_names
    assert depths is ensemble.depth_view()
    assert depth_grid(object()) is None
    assert depth_grid([1, 2, 3]) is None


# ----------------------------------------------------------------------
# Shared-memory roundtrip and lifecycle
# ----------------------------------------------------------------------
def test_shm_publish_attach_roundtrip_bit_identical():
    source = _array_ensemble()
    handle = publish_shared_ensemble(source)
    assert handle is not None
    try:
        attached = attach_shared_ensemble(handle.descriptor)
        assert attached.scenario_name == source.scenario_name
        assert attached.seed == source.seed
        assert attached.asset_names == source.asset_names
        assert np.array_equal(attached.depth_view(), source.depth_view())
        # The attached grid is the same bytes, not a pickled copy.
        assert attached.depth_view().base is not None
    finally:
        handle.close()
        handle.unlink()


def test_unlink_is_idempotent_and_destroys_the_segment():
    handle = publish_shared_ensemble(_array_ensemble())
    descriptor = handle.descriptor
    handle.close()
    handle.unlink()
    handle.unlink()  # second unlink is a no-op, not an error
    with pytest.raises(FileNotFoundError):
        attach_shared_ensemble(descriptor)


def test_publish_returns_none_for_unshareable():
    assert publish_shared_ensemble(object()) is None


def test_attach_rejects_names_that_do_not_match_the_shape():
    with pytest.raises(SerializationError, match="asset names"):
        attach_shared_ensemble(
            {"kind": "mmap", "path": "unused.npy", "shape": [4, 3],
             "asset_names": ["a", "b"]}
        )


def test_attach_rejects_unknown_kind():
    with pytest.raises(SerializationError, match="descriptor kind"):
        attach_shared_ensemble(
            {"kind": "carrier-pigeon", "shape": [1, 1], "asset_names": ["a"]}
        )


# ----------------------------------------------------------------------
# The mmap (cache sidecar) path
# ----------------------------------------------------------------------
def test_cache_sidecar_descriptor_roundtrip(tmp_path, small_ensemble):
    ensemble = small_ensemble
    save_ensemble_cache(ensemble, tmp_path, "k1")
    assert shared_depths_path(tmp_path, "k1").exists()
    descriptor = shared_depth_descriptor(tmp_path, "k1")
    assert descriptor is not None and descriptor["kind"] == "mmap"
    attached = attach_shared_ensemble(descriptor)
    assert attached.asset_names == ensemble.asset_names
    assert np.array_equal(attached.depth_view(), ensemble.depth_matrix())
    # Realization-level fidelity: same failed sets as the original.
    model = ThresholdFragility()
    for ours, theirs in zip(attached, ensemble):
        assert ours.failed_assets(model) == theirs.failed_assets(model)


def test_missing_sidecar_is_none(tmp_path, small_ensemble):
    save_ensemble_cache(small_ensemble, tmp_path, "k2")
    shared_depths_path(tmp_path, "k2").unlink()
    assert shared_depth_descriptor(tmp_path, "k2") is None


def test_damaged_sidecar_is_none(tmp_path, small_ensemble):
    save_ensemble_cache(small_ensemble, tmp_path, "k3")
    shared_depths_path(tmp_path, "k3").write_bytes(b"not an npy file")
    assert shared_depth_descriptor(tmp_path, "k3") is None
