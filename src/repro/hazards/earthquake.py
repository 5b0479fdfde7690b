"""Earthquake hazard: a second disaster type for the compound threat model.

The paper notes its threat model "is a generic model that can apply to
any type of natural disaster" while analyzing only hurricanes.  This
module exercises that claim: a seismic hazard with a fundamentally
different spatial correlation structure (radial attenuation from an
epicenter, rather than coastal surge), producing realizations that plug
into the same analysis pipeline.

Ground motion uses a standard simplified attenuation form::

    ln PGA = a + b * M - c * ln(R_hypo + d)

with soft-soil amplification for low-lying (sedimentary) sites.  The
"intensity measure" handed to the fragility model is PGA in g -- the
threshold fragility then reads "fail if PGA exceeds the anchorage
capacity", the standard substation fragility abstraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import HazardError
from repro.geo.catalog import AssetCatalog
from repro.geo.coords import GeoPoint, haversine_km
from repro.hazards.columnar import ArrayBackedEnsemble
from repro.hazards.fragility import FragilityModel, ThresholdFragility

#: Default anchorage capacity: unanchored substation equipment starts
#: failing around 0.3 g.
DEFAULT_CAPACITY_G = 0.30

#: Sites on low-lying coastal sediment shake harder than rock sites.
SOFT_SOIL_AMPLIFICATION = 1.4
SOFT_SOIL_ELEVATION_M = 6.0


def seismic_fragility(capacity_g: float = DEFAULT_CAPACITY_G) -> ThresholdFragility:
    """The fragility model matching this hazard's PGA intensity measure."""
    return ThresholdFragility(capacity_g)


@dataclass(frozen=True)
class AttenuationParams:
    """Coefficients of the simplified ground-motion prediction equation."""

    a: float = -2.6
    b: float = 1.05
    c: float = 1.7
    d_km: float = 10.0

    def pga_g(self, magnitude: float, hypocentral_km: np.ndarray) -> np.ndarray:
        r = np.maximum(np.asarray(hypocentral_km, dtype=float), 0.0)
        ln_pga = self.a + self.b * magnitude - self.c * np.log(r + self.d_km)
        return np.exp(ln_pga)


@dataclass(frozen=True)
class EarthquakeScenarioSpec:
    """A fault source: epicenters along a trace, Gutenberg-Richter sizes."""

    name: str
    fault_start: GeoPoint
    fault_end: GeoPoint
    depth_km: float = 10.0
    magnitude_min: float = 6.0
    magnitude_max: float = 7.8
    gutenberg_richter_b: float = 1.0
    attenuation: AttenuationParams = AttenuationParams()

    def __post_init__(self) -> None:
        if self.depth_km <= 0:
            raise HazardError("focal depth must be positive")
        if not self.magnitude_min < self.magnitude_max:
            raise HazardError("magnitude range must be increasing")
        if self.gutenberg_richter_b <= 0:
            raise HazardError("Gutenberg-Richter b must be positive")

    def sample_magnitude(self, rng: np.random.Generator) -> float:
        """Truncated Gutenberg-Richter: P(M > m) ~ 10^(-b m)."""
        beta = self.gutenberg_richter_b * math.log(10.0)
        lo, hi = self.magnitude_min, self.magnitude_max
        u = rng.random()
        # Inverse CDF of the truncated exponential on [lo, hi].
        z = math.exp(-beta * lo) - u * (math.exp(-beta * lo) - math.exp(-beta * hi))
        return -math.log(z) / beta

    def sample_epicenter(self, rng: np.random.Generator) -> GeoPoint:
        frac = rng.random()
        lat = self.fault_start.lat + frac * (self.fault_end.lat - self.fault_start.lat)
        lon = self.fault_start.lon + frac * (self.fault_end.lon - self.fault_start.lon)
        return GeoPoint(lat, lon)


@dataclass(frozen=True)
class EarthquakeRealization:
    """One sampled earthquake: source parameters plus per-asset PGA."""

    index: int
    magnitude: float
    epicenter: GeoPoint
    pga_g: dict[str, float]

    def pga_at(self, asset_name: str) -> float:
        try:
            return self.pga_g[asset_name]
        except KeyError:
            raise HazardError(f"no ground motion for asset {asset_name!r}") from None

    def failed_assets(
        self,
        fragility: FragilityModel | None = None,
        rng: np.random.Generator | None = None,
    ) -> frozenset[str]:
        model = fragility or seismic_fragility()
        return model.failed_assets(self.pga_g, rng)


class EarthquakeEnsemble(ArrayBackedEnsemble):
    """An ordered earthquake ensemble: the (R, A) PGA matrix plus each
    row's magnitude and epicenter.

    The intensity matrix is PGA in g, read through the same
    ``depth_view()`` as every family's: the seismic fragility thresholds
    PGA exactly as the flood fragility thresholds depth.  Rows are
    :class:`EarthquakeRealization` objects, built on first use (see
    :class:`~repro.hazards.columnar.ArrayBackedEnsemble`).
    """

    param_columns = ("magnitude", "epicenter_lat", "epicenter_lon")
    fragility = seismic_fragility()

    @staticmethod
    def _from_row(
        index: int, pga_g: dict[str, float], params: list[float]
    ) -> EarthquakeRealization:
        magnitude, lat, lon = params
        return EarthquakeRealization(index, magnitude, GeoPoint(lat, lon), pga_g)

    @staticmethod
    def _to_row(
        realization: EarthquakeRealization,
    ) -> tuple[dict[str, float], list[float]]:
        epicenter = realization.epicenter
        return realization.pga_g, [realization.magnitude, epicenter.lat, epicenter.lon]

    def failure_probability(
        self, asset_name: str, fragility: FragilityModel | None = None
    ) -> float:
        """Fraction of realizations in which the asset's shaking fails it."""
        return self.flood_probability(asset_name, fragility)


class EarthquakeGenerator:
    """Samples earthquake realizations over an asset catalog.

    Implements the :class:`repro.hazards.base.Hazard` protocol:
    generation is a pure function of ``(count, seed)`` and ``cache_key``
    covers the fault scenario plus the asset catalog it shakes.
    """

    deterministic = True

    def __init__(self, catalog: AssetCatalog, scenario: EarthquakeScenarioSpec) -> None:
        if len(catalog) == 0:
            raise HazardError("catalog has no assets")
        self.catalog = catalog
        self.scenario = scenario
        self._names = catalog.names
        self._locations = [catalog.get(n).location for n in self._names]
        self._amplification = np.array(
            [
                SOFT_SOIL_AMPLIFICATION
                if catalog.get(n).elevation_m < SOFT_SOIL_ELEVATION_M
                else 1.0
                for n in self._names
            ]
        )

    def _shake(self, magnitude: float, epicenter: GeoPoint) -> np.ndarray:
        """Per-asset PGA (catalog order) of one event."""
        surface_km = np.array(
            [haversine_km(epicenter, loc) for loc in self._locations]
        )
        hypocentral_km = np.hypot(surface_km, self.scenario.depth_km)
        pga = self.scenario.attenuation.pga_g(magnitude, hypocentral_km)
        return pga * self._amplification

    def generate(
        self, count: int = 1000, seed: int = 0, **delivery: object
    ) -> EarthquakeEnsemble:
        """Sample ``count`` realizations (pure in ``count``/``seed``).

        Each row draws its magnitude, then its epicenter, from the one
        rng in row order.  Generation is cheap (no mesh solve), so the
        :class:`Hazard` delivery keywords (``n_jobs``, ``cache_dir``,
        ``resume``, ...) are accepted and ignored.
        """
        if count < 1:
            raise HazardError("ensemble size must be at least 1")
        rng = np.random.default_rng(seed)
        params = np.empty((count, 3))
        pga = np.empty((count, len(self._names)))
        for row in range(count):
            magnitude = self.scenario.sample_magnitude(rng)
            epicenter = self.scenario.sample_epicenter(rng)
            params[row] = magnitude, epicenter.lat, epicenter.lon
            pga[row] = self._shake(magnitude, epicenter)
        return EarthquakeEnsemble(
            self.scenario.name,
            seed=seed,
            asset_names=self._names,
            depths=pga,
            params=params,
        )

    def cache_key(self, count: int, seed: int) -> str:
        """Content hash over the fault scenario, catalog, count, and seed."""
        import hashlib
        import json
        from dataclasses import asdict

        from repro.geo.digest import geo_content_key

        payload = {
            "format": 1,
            "kind": "repro.earthquake",
            "scenario": asdict(self.scenario),
            "geo": geo_content_key(self.catalog),
            "count": count,
            "seed": seed,
        }
        canonical = json.dumps(payload, sort_keys=True, default=repr)
        return hashlib.sha256(canonical.encode()).hexdigest()[:32]


def standard_oahu_fault() -> EarthquakeScenarioSpec:
    """A synthetic offshore fault south of Oahu (diffuse seismic zone)."""
    return EarthquakeScenarioSpec(
        name="oahu-south-fault",
        fault_start=GeoPoint(21.05, -158.30),
        fault_end=GeoPoint(21.10, -157.60),
        depth_km=12.0,
    )
