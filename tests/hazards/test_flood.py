"""The riverine flood hazard family: model physics and determinism."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import HazardError
from repro.geo.coords import GeoPoint
from repro.hazards.flood import (
    DEFAULT_FLOOD_THRESHOLD_M,
    FloodGenerator,
    RiverineFloodScenarioSpec,
    flood_fragility,
    standard_oahu_flood,
)


@pytest.fixture(scope="module")
def flood_generator(oahu_catalog):
    return FloodGenerator(oahu_catalog, standard_oahu_flood())


class TestScenarioSpec:
    def test_standard_scenario_is_valid(self):
        spec = standard_oahu_flood()
        assert spec.name == "oahu-pearl-floodway"
        assert len(spec.channel) >= 2

    def test_validation(self):
        channel = (GeoPoint(21.4, -157.9), GeoPoint(21.3, -157.85))
        with pytest.raises(HazardError, match="at least 2 vertices"):
            RiverineFloodScenarioSpec(name="x", channel=(GeoPoint(21.4, -157.9),))
        with pytest.raises(HazardError, match="median discharge"):
            RiverineFloodScenarioSpec(
                name="x", channel=channel, discharge_median_m3s=0
            )
        with pytest.raises(HazardError, match="rating exponent"):
            RiverineFloodScenarioSpec(name="x", channel=channel, rating_exponent=1.5)

    def test_rating_curve_is_monotone(self):
        spec = standard_oahu_flood()
        assert spec.stage_for(spec.discharge_median_m3s) == pytest.approx(
            spec.rating_depth_m
        )
        stages = [spec.stage_for(q) for q in (100.0, 350.0, 900.0)]
        assert stages == sorted(stages)


class TestFloodEnsemble:
    def test_deterministic_from_seed(self, flood_generator):
        a = flood_generator.generate(count=50, seed=9)
        b = flood_generator.generate(count=50, seed=9)
        assert [r.discharge_m3s for r in a] == [r.discharge_m3s for r in b]
        assert np.array_equal(a.depth_matrix(), b.depth_matrix())
        c = flood_generator.generate(count=50, seed=10)
        assert [r.discharge_m3s for r in a] != [r.discharge_m3s for r in c]

    def test_low_lying_channel_assets_flood_most(self, flood_generator):
        """Waiau sits on the floodway; Kahe is far west and must stay dry."""
        ensemble = flood_generator.generate(count=300, seed=20220522)
        waiau = ensemble.flood_probability("Waiau Control Center")
        kahe = ensemble.flood_probability("Kahe Control Center")
        assert waiau > 0.1
        assert kahe == 0.0

    def test_fragility_default_matches_depth_measure(self):
        assert flood_fragility().threshold_m == DEFAULT_FLOOD_THRESHOLD_M


class TestFloodHazardProtocol:
    def test_cache_key_tracks_content(self, oahu_catalog, flood_generator):
        base = flood_generator.cache_key(count=40, seed=1)
        assert base == FloodGenerator(
            oahu_catalog, standard_oahu_flood()
        ).cache_key(count=40, seed=1)
        changed = RiverineFloodScenarioSpec(
            name=standard_oahu_flood().name,
            channel=standard_oahu_flood().channel,
            discharge_median_m3s=999.0,
        )
        assert FloodGenerator(oahu_catalog, changed).cache_key(
            count=40, seed=1
        ) != base

    def test_delivery_kwargs_are_accepted(self, flood_generator):
        """The Hazard protocol lets callers pass hurricane-style delivery
        options; deterministic serial hazards accept and ignore them."""
        ensemble = flood_generator.generate(count=10, seed=0, n_jobs=4, resume=False)
        assert len(ensemble) == 10
