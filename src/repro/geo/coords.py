"""Geographic primitives: points, distances, bearings, local projections.

The analysis operates at island scale (tens of kilometres), so a spherical
Earth model and a local equirectangular tangent-plane projection are
accurate to well under one percent -- far below the uncertainty of the
hazard model itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import TopologyError

EARTH_RADIUS_KM = 6371.0088


@dataclass(frozen=True)
class GeoPoint:
    """A point on the Earth's surface in decimal degrees.

    Latitude is positive north, longitude positive east (Oahu longitudes
    are therefore negative).
    """

    lat: float
    lon: float

    def __post_init__(self) -> None:
        if not -90.0 <= self.lat <= 90.0:
            raise TopologyError(f"latitude {self.lat} out of range [-90, 90]")
        if not -180.0 <= self.lon <= 180.0:
            raise TopologyError(f"longitude {self.lon} out of range [-180, 180]")

    def __str__(self) -> str:
        ns = "N" if self.lat >= 0 else "S"
        ew = "E" if self.lon >= 0 else "W"
        return f"{abs(self.lat):.4f}{ns} {abs(self.lon):.4f}{ew}"


def haversine_km(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance between two points in kilometres."""
    return great_circle_km(a.lat, a.lon, b.lat, b.lon)


def great_circle_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """:func:`haversine_km` on bare degrees (no :class:`GeoPoint` needed)."""
    phi1 = math.radians(lat1)
    phi2 = math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlam = math.radians(lon2 - lon1)
    h = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))


def initial_bearing_deg(a: GeoPoint, b: GeoPoint) -> float:
    """Initial great-circle bearing from ``a`` to ``b`` in degrees [0, 360)."""
    return bearing_between_deg(a.lat, a.lon, b.lat, b.lon)


def bearing_between_deg(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """:func:`initial_bearing_deg` on bare degrees."""
    phi1 = math.radians(lat1)
    phi2 = math.radians(lat2)
    dlam = math.radians(lon2 - lon1)
    y = math.sin(dlam) * math.cos(phi2)
    x = math.cos(phi1) * math.sin(phi2) - math.sin(phi1) * math.cos(phi2) * math.cos(dlam)
    return math.degrees(math.atan2(y, x)) % 360.0


def destination_point(origin: GeoPoint, bearing_deg: float, distance_km: float) -> GeoPoint:
    """Point reached by travelling ``distance_km`` along ``bearing_deg``."""
    return GeoPoint(*destination_latlon(origin.lat, origin.lon, bearing_deg, distance_km))


def destination_latlon(
    lat: float, lon: float, bearing_deg: float, distance_km: float
) -> tuple[float, float]:
    """:func:`destination_point` on bare degrees: the unvalidated (lat, lon)."""
    delta = distance_km / EARTH_RADIUS_KM
    theta = math.radians(bearing_deg)
    phi1 = math.radians(lat)
    lam1 = math.radians(lon)
    phi2 = math.asin(
        math.sin(phi1) * math.cos(delta) + math.cos(phi1) * math.sin(delta) * math.cos(theta)
    )
    lam2 = lam1 + math.atan2(
        math.sin(theta) * math.sin(delta) * math.cos(phi1),
        math.cos(delta) - math.sin(phi1) * math.sin(phi2),
    )
    lon2 = math.degrees(lam2)
    lon2 = (lon2 + 540.0) % 360.0 - 180.0
    return math.degrees(phi2), lon2


@dataclass(frozen=True)
class LocalProjection:
    """Equirectangular projection onto a tangent plane around ``origin``.

    Maps (lat, lon) to planar (x, y) kilometres with x pointing east and
    y pointing north.  Adequate for island-scale geometry.
    """

    origin: GeoPoint

    def to_xy(self, p: GeoPoint) -> tuple[float, float]:
        kx = math.cos(math.radians(self.origin.lat))
        x = math.radians(p.lon - self.origin.lon) * EARTH_RADIUS_KM * kx
        y = math.radians(p.lat - self.origin.lat) * EARTH_RADIUS_KM
        return x, y

    def to_point(self, x: float, y: float) -> GeoPoint:
        kx = math.cos(math.radians(self.origin.lat))
        lon = self.origin.lon + math.degrees(x / (EARTH_RADIUS_KM * kx))
        lat = self.origin.lat + math.degrees(y / EARTH_RADIUS_KM)
        return GeoPoint(lat, lon)


def segment_distance_km(p: GeoPoint, a: GeoPoint, b: GeoPoint) -> float:
    """Distance from ``p`` to the great-circle segment ``a``--``b``.

    Computed in a local tangent plane centred at ``a``; exact enough at
    island scale.
    """
    proj = LocalProjection(a)
    px, py = proj.to_xy(p)
    bx, by = proj.to_xy(b)
    seg_len_sq = bx * bx + by * by
    if seg_len_sq == 0.0:
        return math.hypot(px, py)
    t = max(0.0, min(1.0, (px * bx + py * by) / seg_len_sq))
    return math.hypot(px - t * bx, py - t * by)


def unit_vector_deg(bearing_deg: float) -> tuple[float, float]:
    """Planar (east, north) unit vector for a compass bearing."""
    theta = math.radians(bearing_deg)
    return math.sin(theta), math.cos(theta)
