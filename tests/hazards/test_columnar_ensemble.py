"""The columnar hurricane ensemble against the realization objects it replaces.

A generated ensemble holds an (R, A) depth matrix and an (R, 7)
parameter matrix; realization objects are built from the rows on demand.
Every query -- indexing, iteration, ``subset``, ``asset_names``,
pickling, the cache and checkpoint round trips -- must answer exactly as
an ensemble built from the per-realization reference objects does.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.errors import HazardError
from repro.hazards.hurricane.ensemble import (
    HurricaneEnsemble,
    params_from_row,
)
from repro.hazards.hurricane.standard import shared_standard_generator
from repro.io.ensemble_cache import load_ensemble_cache, save_ensemble_cache
from repro.runtime.checkpoint import CheckpointStore

COUNT = 30
SEED = 77

#: sha256 of the depth and parameter matrices ``generate(1000, seed)``
#: produced when the ensemble still held one object per realization.
GOLDEN_DIGESTS = {
    0: (
        "eed17f162dda0d6ce1676e3c6007c805dda07f2b3f7090168410b2414988a951",
        "f608e6c54a800bc093bb65042fde003f17a84a0ed3121b6aca8d96bc88ecc4d2",
    ),
    20220522: (
        "0cf0a26ecd6b6e24d32278da11812ec7e8201b74ff99fa7c10eda02e8229d146",
        "58030b36e441cd5641f894eb81b83dcdcb91b135e024a114cfa15cf66467c7ce",
    ),
}


@pytest.fixture(scope="module")
def generator():
    return shared_standard_generator()


@pytest.fixture(scope="module")
def reference(generator):
    """Realization by realization, each from numpy's own spawned rng."""
    params = generator.sample_all_parameters(COUNT, SEED)
    rngs = generator._realization_rngs(COUNT, SEED)
    return [
        generator.realize(i, params_from_row(p), rng)
        for i, (p, rng) in enumerate(zip(params, rngs))
    ]


@pytest.fixture(scope="module")
def built(generator, reference):
    return HurricaneEnsemble(generator.scenario.name, reference, SEED)


@pytest.fixture()
def generated(generator):
    return generator.generate(COUNT, SEED)


def digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


@pytest.mark.parametrize("seed", sorted(GOLDEN_DIGESTS))
def test_generate_matrices_are_byte_identical(generator, seed):
    ensemble = generator.generate(1000, seed)
    got = (digest(ensemble.depth_view()), digest(ensemble.parameter_view()))
    assert got == GOLDEN_DIGESTS[seed]


def test_columns_are_the_reference_objects(generated, built):
    assert generated == built
    assert generated.asset_names == built.asset_names
    assert np.array_equal(generated.depth_matrix(), built.depth_matrix())
    assert np.array_equal(generated.parameter_view(), built.parameter_view())


def test_indexing_builds_the_same_realizations(generated, reference):
    for i in (0, 7, COUNT - 1, -1):
        assert generated[i] == reference[i]
    assert generated[3] is generated[3]  # built once, kept
    assert generated[2:5] == tuple(reference[2:5])
    with pytest.raises(IndexError):
        generated[COUNT]


def test_iteration_and_realizations(generated, reference):
    assert list(generated) == reference
    assert generated.realizations == tuple(reference)
    assert [r.index for r in generated] == list(range(COUNT))


def test_built_ensemble_keeps_the_given_objects(built, reference):
    assert built[3] is reference[3]
    assert built.realizations == tuple(reference)


def test_subset(generated, built, reference):
    assert generated.subset(5) == built.subset(5)
    assert list(generated.subset(5)) == reference[:5]
    with pytest.raises(HazardError):
        generated.subset(COUNT + 1)


def test_cache_round_trip(generator, generated, reference, tmp_path):
    key = generator.cache_key(COUNT, SEED)
    save_ensemble_cache(generated, tmp_path, key)
    loaded = load_ensemble_cache(tmp_path, key)
    assert loaded == generated
    assert list(loaded) == reference


def test_checkpoint_round_trip(generator, generated, tmp_path):
    def store() -> CheckpointStore:
        return CheckpointStore(
            run_dir=tmp_path / "run", key="k", count=COUNT, seed=SEED,
            scenario_name=generator.scenario.name,
            asset_names=generator.asset_order, shard_size=8,
        )

    writer = store()
    writer.record(range(COUNT), generated.depth_view(), generated.parameter_view())
    writer.flush()
    reader = store()
    loaded = reader.load(expected_params=generator.sample_all_parameters(COUNT, SEED))
    assert loaded.tolist() == list(range(COUNT))
    resumed = HurricaneEnsemble(
        generator.scenario.name,
        seed=SEED,
        asset_names=reader.asset_names,
        depths=reader.depths,
        params=reader.params,
    )
    assert resumed == generated


class TestConstruction:
    def test_caller_arrays_stay_writable(self, generated):
        depths = generated.depth_matrix()
        ensemble = HurricaneEnsemble(
            "x", asset_names=generated.asset_names, depths=depths,
            params=generated.parameter_view(),
        )
        assert depths.flags.writeable
        assert not ensemble.depth_view().flags.writeable
