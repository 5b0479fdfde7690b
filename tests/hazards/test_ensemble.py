"""Tests for Monte Carlo hurricane ensembles."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import HazardError
from repro.geo import HONOLULU_CC, WAIAU_CC, build_oahu_catalog, build_oahu_region
from repro.hazards.fragility import ThresholdFragility
from repro.hazards.hurricane.ensemble import (
    EnsembleGenerator,
    HurricaneEnsemble,
    HurricaneRealization,
)
from repro.hazards.hurricane.inundation import InundationField
from repro.hazards.hurricane.standard import standard_oahu_scenario
from repro.hazards.hurricane.track import saffir_simpson_category


@pytest.fixture(scope="module")
def generator():
    return EnsembleGenerator(
        region=build_oahu_region(),
        catalog=build_oahu_catalog(),
        scenario=standard_oahu_scenario(),
    )


def make_realization(index: int, depths: dict) -> HurricaneRealization:
    gen = EnsembleGenerator(
        region=build_oahu_region(),
        catalog=build_oahu_catalog(),
        scenario=standard_oahu_scenario(),
    )
    params = gen.sample_parameters(np.random.default_rng(index))
    return HurricaneRealization(index, params, InundationField(depths))


class TestParameterSampling:
    def test_pressure_within_bounds(self, generator):
        rng = np.random.default_rng(0)
        spec = generator.scenario
        for _ in range(200):
            p = generator.sample_parameters(rng)
            lo, hi = spec.pressure_bounds_mb
            assert lo <= p.central_pressure_mb <= hi

    def test_speed_within_bounds(self, generator):
        rng = np.random.default_rng(1)
        spec = generator.scenario
        for _ in range(200):
            p = generator.sample_parameters(rng)
            lo, hi = spec.forward_speed_bounds_kmh
            assert lo <= p.forward_speed_kmh <= hi

    def test_rmw_positive_and_plausible(self, generator):
        rng = np.random.default_rng(2)
        rmws = [generator.sample_parameters(rng).rmw_km for _ in range(200)]
        assert all(10.0 < r < 100.0 for r in rmws)
        median = sorted(rmws)[len(rmws) // 2]
        assert 28.0 < median < 43.0

    def test_offsets_spread_tracks(self, generator):
        rng = np.random.default_rng(3)
        offsets = [generator.sample_parameters(rng).track_offset_km for _ in range(300)]
        assert np.std(offsets) == pytest.approx(
            generator.scenario.track_offset_sd_km, rel=0.2
        )

    def test_storms_are_hurricane_strength(self, generator):
        from repro.hazards.hurricane.track import estimate_max_gradient_wind_ms

        rng = np.random.default_rng(4)
        for _ in range(50):
            p = generator.sample_parameters(rng)
            v = estimate_max_gradient_wind_ms(1013.0 - p.central_pressure_mb)
            assert saffir_simpson_category(v) >= 1


class TestGeneration:
    def test_deterministic_for_seed(self, generator):
        e1 = generator.generate(count=20, seed=11)
        e2 = generator.generate(count=20, seed=11)
        assert np.allclose(e1.depth_matrix(), e2.depth_matrix())

    def test_different_seeds_differ(self, generator):
        e1 = generator.generate(count=20, seed=11)
        e2 = generator.generate(count=20, seed=12)
        assert not np.allclose(e1.depth_matrix(), e2.depth_matrix())

    def test_count_respected(self, generator):
        assert len(generator.generate(count=7, seed=0)) == 7

    def test_rejects_zero_count(self, generator):
        with pytest.raises(HazardError):
            generator.generate(count=0, seed=0)

    def test_depth_matrix_shape(self, generator):
        ens = generator.generate(count=5, seed=0)
        matrix = ens.depth_matrix()
        assert matrix.shape == (5, len(ens.asset_names))
        assert np.all(matrix >= 0.0)

    def test_realization_tracks_pass_through_landfall(self, generator):
        rng = np.random.default_rng(5)
        params = generator.sample_parameters(rng)
        track = params.to_track("x")
        state = track.state_at(0.0)
        assert abs(state.center.lat - params.landfall.lat) < 1e-9


class TestEnsembleQueries:
    def small(self) -> HurricaneEnsemble:
        reals = [
            make_realization(0, {"A": 1.0, "B": 0.0}),
            make_realization(1, {"A": 0.0, "B": 0.0}),
            make_realization(2, {"A": 0.9, "B": 0.9}),
            make_realization(3, {"A": 0.0, "B": 0.6}),
        ]
        return HurricaneEnsemble("test", tuple(reals))

    def test_flood_probability(self):
        ens = self.small()
        assert ens.flood_probability("A") == 0.5
        assert ens.flood_probability("B") == 0.5

    def test_joint_probability(self):
        assert self.small().joint_flood_probability(["A", "B"]) == 0.25

    def test_conditional_probability(self):
        ens = self.small()
        assert ens.conditional_flood_probability("B", "A") == 0.5
        assert ens.conditional_flood_probability("A", "B") == 0.5

    def test_conditional_nan_when_never(self):
        ens = HurricaneEnsemble(
            "t", (make_realization(0, {"A": 0.0, "B": 1.0}),)
        )
        assert math.isnan(ens.conditional_flood_probability("B", "A"))

    def test_custom_fragility(self):
        ens = self.small()
        lenient = ThresholdFragility(0.95)
        assert ens.flood_probability("A", lenient) == 0.25

    def test_subset(self):
        ens = self.small()
        sub = ens.subset(2)
        assert len(sub) == 2
        assert sub[0].index == 0

    def test_iteration_and_indexing(self):
        ens = self.small()
        assert [r.index for r in ens] == [0, 1, 2, 3]
        assert ens[2].index == 2

    def test_failed_assets_uses_threshold(self):
        r = make_realization(0, {"A": 0.6, "B": 0.2})
        assert r.failed_assets() == frozenset({"A"})
