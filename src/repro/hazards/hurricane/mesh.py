"""Coastal mesh discretization of a region's shoreline.

The surge solver evaluates wind setup at discrete shoreline nodes, the
same way ADCIRC resolves the coast with near-shore mesh elements.  Each
node carries its location, the shoreline segment it belongs to (for the
segment's shelf factor), and the local *onshore normal* -- the unit vector
pointing inland, against which the wind's onshore component is measured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.errors import HazardError
from repro.geo.coords import GeoPoint, LocalProjection
from repro.geo.region import CoastalRegion


def _frozen(rows) -> np.ndarray:
    """A read-only array: the mesh computes each geometry array once."""
    array = np.array(rows)
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class MeshNode:
    """One shoreline node of the coastal mesh."""

    index: int
    point: GeoPoint
    segment_name: str
    shelf_factor: float
    onshore_normal: tuple[float, float]  # (east, north) unit vector, points inland


@dataclass(frozen=True)
class CoastalMesh:
    """Shoreline nodes for a region, plus cached planar geometry.

    The geometry arrays (``xy_km``, ``normals``, ``shelf_factors``) are
    built on first access and kept, read-only.

    Nodes are ordered walking the shoreline ring segment by segment, so a
    moving-average window over node indices is a window over physically
    adjacent coastline (as used by the paper's shoreline averaging step).
    """

    region: CoastalRegion
    nodes: tuple[MeshNode, ...]
    projection: LocalProjection

    def __post_init__(self) -> None:
        if len(self.nodes) < 3:
            raise HazardError("coastal mesh needs at least 3 nodes")

    def __len__(self) -> int:
        return len(self.nodes)

    @cached_property
    def xy_km(self) -> np.ndarray:
        """Planar (n, 2) node coordinates in the mesh projection (read-only)."""
        return _frozen([self.projection.to_xy(n.point) for n in self.nodes])

    @cached_property
    def normals(self) -> np.ndarray:
        """Planar (n, 2) onshore unit normals (read-only)."""
        return _frozen([n.onshore_normal for n in self.nodes])

    @cached_property
    def shelf_factors(self) -> np.ndarray:
        """Per-node shelf factors (read-only)."""
        return _frozen([n.shelf_factor for n in self.nodes])

    def nodes_in_segment(self, segment_name: str) -> list[MeshNode]:
        return [n for n in self.nodes if n.segment_name == segment_name]

    def segment_slices(self) -> dict[str, slice]:
        """Index ranges of each shoreline segment (nodes are contiguous)."""
        slices: dict[str, slice] = {}
        start = 0
        current = self.nodes[0].segment_name
        for i, node in enumerate(self.nodes):
            if node.segment_name != current:
                slices[current] = slice(start, i)
                start = i
                current = node.segment_name
        slices[current] = slice(start, len(self.nodes))
        return slices


def build_coastal_mesh(region: CoastalRegion, spacing_km: float = 2.0) -> CoastalMesh:
    """Discretize a region's shoreline into nodes every ``spacing_km``.

    Nodes are placed along each segment's edges at the requested spacing;
    every segment contributes at least its edge midpoints so no segment is
    left unresolved.  The onshore normal of each node is the edge
    perpendicular oriented toward the region centroid.
    """
    if spacing_km <= 0.0:
        raise HazardError("mesh spacing must be positive")
    projection = LocalProjection(region.centroid)
    cx, cy = 0.0, 0.0  # centroid in its own projection
    nodes: list[MeshNode] = []
    for segment in region.segments:
        vs = segment.vertices
        for a, b in zip(vs, vs[1:]):
            ax, ay = projection.to_xy(a)
            bx, by = projection.to_xy(b)
            edge_len = math.hypot(bx - ax, by - ay)
            if edge_len == 0.0:
                continue
            count = max(1, int(round(edge_len / spacing_km)))
            dx = (bx - ax) / edge_len
            dy = (by - ay) / edge_len
            # Two candidate perpendiculars; pick the one facing the centroid.
            for k in range(count):
                frac = (k + 0.5) / count
                px = ax + frac * (bx - ax)
                py = ay + frac * (by - ay)
                if segment.onshore_bearing_override is not None:
                    theta = math.radians(segment.onshore_bearing_override)
                    nx, ny = math.sin(theta), math.cos(theta)
                else:
                    nx, ny = -dy, dx
                    if (cx - px) * nx + (cy - py) * ny < 0.0:
                        nx, ny = -nx, -ny
                nodes.append(
                    MeshNode(
                        index=len(nodes),
                        point=projection.to_point(px, py),
                        segment_name=segment.name,
                        shelf_factor=segment.shelf_factor,
                        onshore_normal=(nx, ny),
                    )
                )
    return CoastalMesh(region=region, nodes=tuple(nodes), projection=projection)
