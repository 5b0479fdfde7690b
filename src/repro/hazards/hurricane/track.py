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
from typing import Sequence

import numpy as np

from repro.errors import HazardError, TopologyError
from repro.geo.coords import (
    GeoPoint,
    destination_latlon,
    haversine_km,
    initial_bearing_deg,
)

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


def check_track_points(
    point_times: Sequence[float],
    lat: np.ndarray,
    lon: np.ndarray,
    pressure_mb: np.ndarray,
    rmw_km: np.ndarray,
) -> None:
    """Vectorized :class:`StormTrack` checks for (R, P) float track-point arrays.

    Raises what building the tracks' :class:`~repro.geo.coords.GeoPoint`,
    :class:`TrackPoint` and :class:`StormTrack` objects would, checked in
    that order: :class:`~repro.errors.TopologyError` for a coordinate out
    of range, :class:`~repro.errors.HazardError` for an invalid pressure
    or radius of maximum winds, too few points, or times that do not
    strictly increase.
    """
    shape = (len(lat), len(point_times))
    if not shape[0]:
        raise HazardError("a kernel block needs at least one track")
    if any(a.shape != shape for a in (lat, lon, pressure_mb, rmw_km)):
        raise HazardError(f"track point arrays must all have shape {shape}")
    if not ((-90.0 <= lat) & (lat <= 90.0)).all():
        raise TopologyError("track latitude out of range [-90, 90]")
    if not ((-180.0 <= lon) & (lon <= 180.0)).all():
        raise TopologyError("track longitude out of range [-180, 180]")
    if not ((850.0 <= pressure_mb) & (pressure_mb < AMBIENT_PRESSURE_MB)).all():
        raise HazardError(
            "central pressure is not a valid hurricane pressure "
            f"(must be in [850, {AMBIENT_PRESSURE_MB}))"
        )
    if (rmw_km <= 0.0).any():
        raise HazardError("radius of maximum winds must be positive")
    if shape[1] < 2:
        raise HazardError("a track needs at least 2 points")
    if any(b <= a for a, b in zip(point_times, point_times[1:])):
        raise HazardError("track times must be strictly increasing")


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
    times, lats, lons = linear_track_points(
        [landfall.lat], [landfall.lon], [heading_deg], [forward_speed_kmh],
        lead_hours, trail_hours,
    )
    points = tuple(
        TrackPoint(t, GeoPoint(lat, lon), central_pressure_mb, rmw_km)
        for t, lat, lon in zip(times, lats[0].tolist(), lons[0].tolist())
    )
    return StormTrack(name, points)


def linear_track_points(
    lat: Sequence[float],
    lon: Sequence[float],
    heading_deg: Sequence[float],
    forward_speed_kmh: Sequence[float],
    lead_hours: float = LEAD_HOURS,
    trail_hours: float = TRAIL_HOURS,
) -> tuple[list[float], np.ndarray, np.ndarray]:
    """The points of :func:`synthesize_linear_track` for R storms at once.

    Row ``r`` is the storm landing at (``lat[r]``, ``lon[r]``).  Returns
    ``(point_times, lats, lons)``: the shared times ``[-lead, 0, trail]``
    and (R, 3) start, landfall and end coordinates, each computed with
    :func:`~repro.geo.coords.destination_latlon` on plain floats, so
    every coordinate is bitwise the one the track's points carry.
    """
    if np.any(np.asarray(forward_speed_kmh, dtype=float) <= 0.0):
        raise HazardError("forward speed must be positive")
    if lead_hours <= 0.0 or trail_hours <= 0.0:
        raise HazardError("lead and trail durations must be positive")
    lats, lons, headings, speeds = (
        np.asarray(a, dtype=float).tolist()
        for a in (lat, lon, heading_deg, forward_speed_kmh)
    )
    starts = map(
        destination_latlon,
        lats,
        lons,
        [(heading + 180.0) % 360.0 for heading in headings],
        [speed * lead_hours for speed in speeds],
    )
    ends = map(
        destination_latlon,
        lats,
        lons,
        headings,
        [speed * trail_hours for speed in speeds],
    )
    start = np.array(list(starts)).reshape(-1, 2)
    end = np.array(list(ends)).reshape(-1, 2)
    landfall = np.array([lats, lons]).reshape(2, -1)
    return (
        [-lead_hours, 0.0, trail_hours],
        np.stack([start[:, 0], landfall[0], end[:, 0]], axis=1),
        np.stack([start[:, 1], landfall[1], end[:, 1]], axis=1),
    )


def estimate_max_gradient_wind_ms(pressure_deficit_mb: float, holland_b: float = 1.4) -> float:
    """Holland (1980) maximum gradient wind for a pressure deficit.

    ``V_max = sqrt(B * dP / (rho * e))`` with air density 1.15 kg/m^3.
    """
    if pressure_deficit_mb <= 0.0:
        raise HazardError("pressure deficit must be positive")
    deficit_pa = pressure_deficit_mb * 100.0
    return math.sqrt(holland_b * deficit_pa / (1.15 * math.e))
