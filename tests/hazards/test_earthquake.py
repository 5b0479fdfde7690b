"""Tests for the earthquake hazard and its pipeline integration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pipeline import CompoundThreatAnalysis
from repro.core.states import OperationalState as S
from repro.core.threat import HURRICANE, HURRICANE_ISOLATION
from repro.errors import HazardError
from repro.geo.coords import GeoPoint, haversine_km
from repro.geo import HONOLULU_CC, KAHE_CC, WAIAU_CC, build_oahu_catalog
from repro.hazards.base import HazardEnsemble, HazardRealization
from repro.hazards.earthquake import (
    AttenuationParams,
    EarthquakeGenerator,
    EarthquakeScenarioSpec,
    seismic_fragility,
    standard_oahu_fault,
)
from repro.scada.architectures import CONFIG_2_2, CONFIG_6_6_6
from repro.scada.placement import PLACEMENT_WAIAU


@pytest.fixture(scope="module")
def generator(oahu_catalog):
    return EarthquakeGenerator(oahu_catalog, standard_oahu_fault())


@pytest.fixture(scope="module")
def eq_ensemble(generator):
    return generator.generate(count=500, seed=42)


class TestAttenuation:
    def test_pga_decays_with_distance(self):
        att = AttenuationParams()
        near, far = att.pga_g(7.0, np.array([15.0, 80.0]))
        assert near > far > 0.0

    def test_pga_grows_with_magnitude(self):
        att = AttenuationParams()
        weak = float(att.pga_g(6.0, np.array([30.0]))[0])
        strong = float(att.pga_g(7.5, np.array([30.0]))[0])
        assert strong > 2.0 * weak

    def test_plausible_magnitudes(self):
        # M7 at ~20 km should produce damaging but not absurd shaking.
        att = AttenuationParams()
        pga = float(att.pga_g(7.0, np.array([20.0]))[0])
        assert 0.1 < pga < 1.5


class TestScenarioSpec:
    def test_validation(self):
        a, b = GeoPoint(21.0, -158.3), GeoPoint(21.1, -157.6)
        with pytest.raises(HazardError):
            EarthquakeScenarioSpec("x", a, b, depth_km=0.0)
        with pytest.raises(HazardError):
            EarthquakeScenarioSpec("x", a, b, magnitude_min=7.0, magnitude_max=6.0)
        with pytest.raises(HazardError):
            EarthquakeScenarioSpec("x", a, b, gutenberg_richter_b=0.0)

    def test_magnitudes_within_bounds(self):
        spec = standard_oahu_fault()
        rng = np.random.default_rng(0)
        mags = [spec.sample_magnitude(rng) for _ in range(500)]
        assert all(spec.magnitude_min <= m <= spec.magnitude_max for m in mags)

    def test_gutenberg_richter_favors_small_events(self):
        spec = standard_oahu_fault()
        rng = np.random.default_rng(1)
        mags = [spec.sample_magnitude(rng) for _ in range(2000)]
        small = sum(1 for m in mags if m < 6.5)
        large = sum(1 for m in mags if m > 7.3)
        assert small > 5 * large

    def test_epicenters_on_fault_trace(self):
        spec = standard_oahu_fault()
        rng = np.random.default_rng(2)
        for _ in range(50):
            epi = spec.sample_epicenter(rng)
            # Between the endpoints (convexity of linear interpolation).
            assert min(spec.fault_start.lon, spec.fault_end.lon) <= epi.lon
            assert epi.lon <= max(spec.fault_start.lon, spec.fault_end.lon)


class TestGenerator:
    def test_deterministic(self, generator):
        a = generator.generate(count=10, seed=5)
        b = generator.generate(count=10, seed=5)
        assert all(
            ra.pga_g == rb.pga_g for ra, rb in zip(a.realizations, b.realizations)
        )

    def test_rejects_empty(self, oahu_catalog, generator):
        with pytest.raises(HazardError):
            generator.generate(count=0)

    def test_shaking_decays_from_epicenter(self, generator):
        r = generator.generate(1, seed=7)[0]
        catalog = build_oahu_catalog()
        # Rock-site pair with very different epicentral distances: the
        # nearer one shakes harder (soil amplification held equal).
        near = "Koolau Substation"  # windward, elev 60 (rock)
        far = "Wahiawa Substation"  # central plateau, elev 270 (rock)
        d_near = haversine_km(r.epicenter, catalog.get(near).location)
        d_far = haversine_km(r.epicenter, catalog.get(far).location)
        if d_near < d_far:
            assert r.pga_at(near) >= r.pga_at(far)
        else:
            assert r.pga_at(far) >= r.pga_at(near)

    def test_soft_soil_amplifies(self, generator, oahu_catalog):
        r = generator.generate(1, seed=9)[0]
        # Waiau (elev 2.6, soft) vs Halawa (elev 8, rock) are ~3 km apart:
        # the soil factor dominates the small distance difference.
        assert r.pga_at(WAIAU_CC) > r.pga_at("Halawa Substation")

    def test_unknown_asset_rejected(self, generator):
        r = generator.generate(1, seed=0)[0]
        with pytest.raises(HazardError):
            r.pga_at("Atlantis Substation")


class TestEnsembleStatistics:
    def test_south_shore_most_exposed(self, eq_ensemble):
        # The fault lies south: Honolulu (near, soft soil) fails more
        # than Kahe (far end / rock pad).
        assert eq_ensemble.failure_probability(HONOLULU_CC) > 0.02
        assert eq_ensemble.failure_probability(
            HONOLULU_CC
        ) > eq_ensemble.failure_probability(KAHE_CC)

    def test_correlation_is_partial_not_total(self, eq_ensemble):
        # The hurricane floods Honolulu and Waiau identically; the quake
        # correlates them only partially -- a structurally different
        # hazard exercising the same pipeline.
        hon_hits = [r for r in eq_ensemble if HONOLULU_CC in r.failed_assets()]
        assert hon_hits
        both = sum(1 for r in hon_hits if WAIAU_CC in r.failed_assets())
        assert 0 < both < len(hon_hits)

    def test_capacity_sweep_monotone(self, eq_ensemble):
        probs = [
            eq_ensemble.failure_probability(HONOLULU_CC, seismic_fragility(c))
            for c in (0.2, 0.3, 0.4, 0.6)
        ]
        assert all(b <= a for a, b in zip(probs, probs[1:]))


class TestPipelineIntegration:
    def test_satisfies_hazard_protocols(self, eq_ensemble):
        assert isinstance(eq_ensemble, HazardEnsemble)
        assert isinstance(eq_ensemble[0], HazardRealization)

    def test_full_analysis_runs(self, eq_ensemble):
        analysis = CompoundThreatAnalysis(eq_ensemble, fragility=seismic_fragility())
        profile = analysis.run(CONFIG_2_2, PLACEMENT_WAIAU, HURRICANE)
        assert profile.total == len(eq_ensemble)
        # Some events take out the primary, and since the quake's
        # correlation is partial the backup sometimes survives: orange
        # appears, which never happens with the hurricane + Waiau backup.
        assert profile.probability(S.ORANGE) > 0.0

    def test_666_still_strongest(self, eq_ensemble):
        analysis = CompoundThreatAnalysis(eq_ensemble, fragility=seismic_fragility())
        weak = analysis.run(CONFIG_2_2, PLACEMENT_WAIAU, HURRICANE_ISOLATION)
        strong = analysis.run(CONFIG_6_6_6, PLACEMENT_WAIAU, HURRICANE_ISOLATION)
        assert strong.probability(S.GREEN) > weak.probability(S.GREEN)
