"""Riverine flood hazard family.

The third hazard family (after hurricane surge and earthquake shaking),
added to prove the :class:`repro.hazards.base.Hazard` abstraction: a
river channel is a polyline, annual peak discharge is lognormal, a
stage-discharge rating curve converts discharge to water-surface stage
at the channel, and the flood spreads laterally with an exponential
floodplain decay.  Per-asset inundation depth is then

    ``depth = max(0, stage * exp(-distance / floodplain_width) - elevation)``

so low-lying assets near the channel flood in large events while
elevated or distant assets stay dry.  The intensity measure is depth in
metres -- the same measure as hurricane surge -- so the default
:class:`~repro.hazards.fragility.ThresholdFragility` and the fused
batched executor apply unchanged.

Like the earthquake model this is a deliberately simple, fully
deterministic-from-seed physical model: the point is the pipeline
contract (realizations -> fragility -> interdependency -> attack ->
classification), not hydrological fidelity.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from repro.errors import HazardError
from repro.geo.catalog import AssetCatalog
from repro.geo.coords import GeoPoint, segment_distance_km
from repro.hazards.columnar import ArrayBackedEnsemble
from repro.hazards.fragility import FragilityModel, ThresholdFragility

__all__ = [
    "RiverineFloodScenarioSpec",
    "FloodRealization",
    "FloodEnsemble",
    "FloodGenerator",
    "flood_fragility",
    "standard_oahu_flood",
]

DEFAULT_FLOOD_THRESHOLD_M = 0.5


def flood_fragility(threshold_m: float = DEFAULT_FLOOD_THRESHOLD_M) -> ThresholdFragility:
    """The fragility model matching this hazard's depth intensity measure."""
    return ThresholdFragility(threshold_m)


@dataclass(frozen=True)
class RiverineFloodScenarioSpec:
    """Parameters of a riverine flood scenario.

    ``channel`` is the river centreline (>= 2 vertices, upstream to
    mouth).  Discharge is lognormal around ``discharge_median_m3s`` with
    log standard deviation ``discharge_log_sd``; the rating curve
    ``stage = rating_depth_m * (Q / Q_median) ** rating_exponent``
    converts it to channel stage, which decays laterally with e-folding
    length ``floodplain_width_km``.
    """

    name: str
    channel: tuple[GeoPoint, ...]
    discharge_median_m3s: float = 350.0
    discharge_log_sd: float = 0.55
    rating_depth_m: float = 2.6
    rating_exponent: float = 0.45
    floodplain_width_km: float = 1.8

    def __post_init__(self) -> None:
        if not self.name:
            raise HazardError("flood scenario name must be non-empty")
        if len(self.channel) < 2:
            raise HazardError("river channel needs at least 2 vertices")
        if self.discharge_median_m3s <= 0:
            raise HazardError("median discharge must be positive")
        if self.discharge_log_sd < 0:
            raise HazardError("discharge log-sd must be non-negative")
        if self.rating_depth_m <= 0:
            raise HazardError("rating depth must be positive")
        if not 0 < self.rating_exponent <= 1:
            raise HazardError("rating exponent must be in (0, 1]")
        if self.floodplain_width_km <= 0:
            raise HazardError("floodplain width must be positive")

    def sample_discharge(self, rng: np.random.Generator) -> float:
        """One lognormal peak-discharge draw in m^3/s."""
        return float(
            self.discharge_median_m3s
            * math.exp(self.discharge_log_sd * rng.standard_normal())
        )

    def stage_for(self, discharge_m3s: float) -> float:
        """Rating curve: channel water-surface stage (m) for a discharge."""
        ratio = discharge_m3s / self.discharge_median_m3s
        return self.rating_depth_m * ratio**self.rating_exponent


@dataclass(frozen=True)
class FloodRealization:
    """One sampled flood: discharge plus per-asset inundation depth."""

    index: int
    discharge_m3s: float
    stage_m: float
    depths_m: dict[str, float]

    def depth_at(self, asset_name: str) -> float:
        try:
            return self.depths_m[asset_name]
        except KeyError:
            raise HazardError(f"no flood depth for asset {asset_name!r}") from None

    def failed_assets(
        self,
        fragility: FragilityModel | None = None,
        rng: np.random.Generator | None = None,
    ) -> frozenset[str]:
        model = fragility or flood_fragility()
        return model.failed_assets(self.depths_m, rng)


class FloodEnsemble(ArrayBackedEnsemble):
    """An ordered flood ensemble: the (R, A) inundation-depth matrix plus
    each row's peak discharge and channel stage.

    Rows are :class:`FloodRealization` objects, built on first use (see
    :class:`~repro.hazards.columnar.ArrayBackedEnsemble`).
    """

    param_columns = ("discharge_m3s", "stage_m")
    fragility = flood_fragility()

    @staticmethod
    def _from_row(
        index: int, depths_m: dict[str, float], params: list[float]
    ) -> FloodRealization:
        discharge, stage = params
        return FloodRealization(index, discharge, stage, depths_m)

    @staticmethod
    def _to_row(realization: FloodRealization) -> tuple[dict[str, float], list[float]]:
        return realization.depths_m, [realization.discharge_m3s, realization.stage_m]


class FloodGenerator:
    """Samples riverine flood realizations over an asset catalog.

    Implements the :class:`repro.hazards.base.Hazard` protocol:
    generation is a pure function of ``(count, seed)`` and ``cache_key``
    covers the flood scenario plus the asset catalog it inundates.
    """

    deterministic = True

    def __init__(self, catalog: AssetCatalog, scenario: RiverineFloodScenarioSpec) -> None:
        if len(catalog) == 0:
            raise HazardError("catalog has no assets")
        self.catalog = catalog
        self.scenario = scenario
        self._names = catalog.names
        self._elevations = np.array(
            [catalog.get(n).elevation_m for n in self._names]
        )
        channel = scenario.channel
        self._channel_distance_km = np.array(
            [
                min(
                    segment_distance_km(catalog.get(n).location, a, b)
                    for a, b in zip(channel, channel[1:])
                )
                for n in self._names
            ]
        )
        self._lateral_decay = np.exp(
            -self._channel_distance_km / scenario.floodplain_width_km
        )

    def generate(
        self, count: int = 1000, seed: int = 0, **delivery: object
    ) -> FloodEnsemble:
        """Sample ``count`` realizations (pure in ``count``/``seed``).

        Generation is cheap (closed-form depths, no mesh solve), so the
        :class:`Hazard` delivery keywords (``n_jobs``, ``cache_dir``,
        ``resume``, ...) are accepted and ignored.
        """
        if count < 1:
            raise HazardError("ensemble size must be at least 1")
        rng = np.random.default_rng(seed)
        # One discharge draw per row, in row order; depths in one pass.
        discharges = [self.scenario.sample_discharge(rng) for _ in range(count)]
        params = np.array([(q, self.scenario.stage_for(q)) for q in discharges])
        depths = np.maximum(
            0.0, params[:, 1:] * self._lateral_decay - self._elevations
        )
        return FloodEnsemble(
            self.scenario.name,
            seed=seed,
            asset_names=self._names,
            depths=depths,
            params=params,
        )

    def cache_key(self, count: int, seed: int) -> str:
        """Content hash over the flood scenario, catalog, count, and seed."""
        from repro.geo.digest import geo_content_key

        payload = {
            "format": 1,
            "kind": "repro.flood",
            "scenario": asdict(self.scenario),
            "geo": geo_content_key(self.catalog),
            "count": count,
            "seed": seed,
        }
        canonical = json.dumps(payload, sort_keys=True, default=repr)
        return hashlib.sha256(canonical.encode()).hexdigest()[:32]


def standard_oahu_flood() -> RiverineFloodScenarioSpec:
    """A synthetic Pearl Harbor / Honolulu-plain floodway.

    The channel descends from the Koolau range through the Waiau
    lowlands and along the southern coastal plain past downtown
    Honolulu, so the paper's two low-lying control sites (Waiau at
    2.6 m, Honolulu at 2.6 m) share the flood exposure while Kahe and
    the inland data centers stay dry -- the same correlated-control-site
    structure the hurricane case study exhibits.
    """
    return RiverineFloodScenarioSpec(
        name="oahu-pearl-floodway",
        channel=(
            GeoPoint(21.420, -157.900),
            GeoPoint(21.385, -157.935),
            GeoPoint(21.372, -157.940),
            GeoPoint(21.340, -157.915),
            GeoPoint(21.310, -157.870),
            GeoPoint(21.300, -157.858),
        ),
    )
