"""Storm tracks: the time history of a hurricane's center and intensity.

A track is a sequence of points (time, center, central pressure, radius of
maximum winds).  The case study uses synthetic straight-line tracks passing
through a landfall point -- the same role the emergency-planner track plays
in the paper's ADCIRC runs -- with per-realization perturbations applied by
:mod:`repro.hazards.hurricane.ensemble`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import HazardError
from repro.geo.coords import GeoPoint, destination_point, haversine_km, initial_bearing_deg

AMBIENT_PRESSURE_MB = 1013.0

#: Default hours a synthesized track spans before and after landfall.
LEAD_HOURS = 18.0
TRAIL_HOURS = 12.0

# Saffir-Simpson scale lower bounds on 1-minute sustained wind (m/s).
_SAFFIR_SIMPSON_BOUNDS = [(5, 70.0), (4, 58.0), (3, 50.0), (2, 43.0), (1, 33.0)]


def saffir_simpson_category(max_wind_ms: float) -> int:
    """Saffir-Simpson category (0 = below hurricane strength)."""
    for category, bound in _SAFFIR_SIMPSON_BOUNDS:
        if max_wind_ms >= bound:
            return category
    return 0


@dataclass(frozen=True)
class TrackPoint:
    """The storm state at one instant."""

    time_h: float
    center: GeoPoint
    central_pressure_mb: float
    rmw_km: float

    def __post_init__(self) -> None:
        if not 850.0 <= self.central_pressure_mb < AMBIENT_PRESSURE_MB:
            raise HazardError(
                f"central pressure {self.central_pressure_mb} mb is not a valid "
                f"hurricane pressure (must be in [850, {AMBIENT_PRESSURE_MB}))"
            )
        if self.rmw_km <= 0.0:
            raise HazardError("radius of maximum winds must be positive")

    @property
    def pressure_deficit_mb(self) -> float:
        return AMBIENT_PRESSURE_MB - self.central_pressure_mb


@dataclass(frozen=True)
class StormTrack:
    """A hurricane track as an ordered sequence of :class:`TrackPoint`.

    Points must be strictly increasing in time.  State between points is
    linearly interpolated.
    """

    name: str
    points: tuple[TrackPoint, ...]

    def __post_init__(self) -> None:
        if len(self.points) < 2:
            raise HazardError(f"track {self.name!r} needs at least 2 points")
        times = [p.time_h for p in self.points]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise HazardError(f"track {self.name!r} times must be strictly increasing")

    @property
    def start_time_h(self) -> float:
        return self.points[0].time_h

    @property
    def end_time_h(self) -> float:
        return self.points[-1].time_h

    def _bracket(self, time_h: float) -> tuple[TrackPoint, TrackPoint, float]:
        if not self.start_time_h <= time_h <= self.end_time_h:
            raise HazardError(
                f"time {time_h} h outside track interval "
                f"[{self.start_time_h}, {self.end_time_h}]"
            )
        for a, b in zip(self.points, self.points[1:]):
            if a.time_h <= time_h <= b.time_h:
                frac = (time_h - a.time_h) / (b.time_h - a.time_h)
                return a, b, frac
        raise HazardError(f"time {time_h} h not bracketed")  # pragma: no cover

    def state_at(self, time_h: float) -> TrackPoint:
        """Linearly interpolated storm state at ``time_h``."""
        a, b, frac = self._bracket(time_h)
        lat = a.center.lat + frac * (b.center.lat - a.center.lat)
        lon = a.center.lon + frac * (b.center.lon - a.center.lon)
        return TrackPoint(
            time_h=time_h,
            center=GeoPoint(lat, lon),
            central_pressure_mb=(
                a.central_pressure_mb + frac * (b.central_pressure_mb - a.central_pressure_mb)
            ),
            rmw_km=a.rmw_km + frac * (b.rmw_km - a.rmw_km),
        )

    def heading_deg_at(self, time_h: float) -> float:
        """Direction of storm motion (compass bearing) at ``time_h``."""
        a, b, _ = self._bracket(time_h)
        return initial_bearing_deg(a.center, b.center)

    def forward_speed_kmh_at(self, time_h: float) -> float:
        """Translation speed of the storm center at ``time_h``."""
        a, b, _ = self._bracket(time_h)
        return haversine_km(a.center, b.center) / (b.time_h - a.time_h)

    def times(self, step_h: float) -> list[float]:
        """Sample times covering the track at the given step."""
        return sample_times(self.start_time_h, self.end_time_h, step_h)


def sample_times(start_h: float, end_h: float, step_h: float) -> list[float]:
    """Times from ``start_h`` in steps of ``step_h``, closed by ``end_h``."""
    if step_h <= 0.0:
        raise HazardError("time step must be positive")
    out = []
    t = start_h
    while t < end_h:
        out.append(t)
        t += step_h
    out.append(end_h)
    return out


def synthesize_linear_track(
    name: str,
    landfall: GeoPoint,
    heading_deg: float,
    forward_speed_kmh: float,
    central_pressure_mb: float,
    rmw_km: float,
    lead_hours: float = LEAD_HOURS,
    trail_hours: float = TRAIL_HOURS,
) -> StormTrack:
    """A constant-speed, constant-intensity straight-line track.

    The storm moves along ``heading_deg`` and its center passes through
    ``landfall`` at time 0; the track spans ``[-lead_hours, +trail_hours]``.
    """
    if forward_speed_kmh <= 0.0:
        raise HazardError("forward speed must be positive")
    if lead_hours <= 0.0 or trail_hours <= 0.0:
        raise HazardError("lead and trail durations must be positive")
    start = destination_point(
        landfall, (heading_deg + 180.0) % 360.0, forward_speed_kmh * lead_hours
    )
    end = destination_point(landfall, heading_deg, forward_speed_kmh * trail_hours)
    points = (
        TrackPoint(-lead_hours, start, central_pressure_mb, rmw_km),
        TrackPoint(0.0, landfall, central_pressure_mb, rmw_km),
        TrackPoint(trail_hours, end, central_pressure_mb, rmw_km),
    )
    return StormTrack(name, points)


def estimate_max_gradient_wind_ms(pressure_deficit_mb: float, holland_b: float = 1.4) -> float:
    """Holland (1980) maximum gradient wind for a pressure deficit.

    ``V_max = sqrt(B * dP / (rho * e))`` with air density 1.15 kg/m^3.
    """
    if pressure_deficit_mb <= 0.0:
        raise HazardError("pressure deficit must be positive")
    deficit_pa = pressure_deficit_mb * 100.0
    return math.sqrt(holland_b * deficit_pa / (1.15 * math.e))
