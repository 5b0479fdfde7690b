"""Tests for the coastal mesh discretization."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import HazardError
from repro.geo.coords import LocalProjection
from repro.hazards.hurricane.mesh import build_coastal_mesh
from tests.geo.test_region import square_region


class TestBuildMesh:
    def test_rejects_bad_spacing(self):
        with pytest.raises(HazardError):
            build_coastal_mesh(square_region(), spacing_km=0.0)

    def test_node_count_scales_with_spacing(self):
        region = square_region()
        coarse = build_coastal_mesh(region, spacing_km=5.0)
        fine = build_coastal_mesh(region, spacing_km=1.0)
        assert len(fine) > 2 * len(coarse)

    def test_indices_are_sequential(self):
        mesh = build_coastal_mesh(square_region(), spacing_km=2.0)
        assert [n.index for n in mesh.nodes] == list(range(len(mesh)))

    def test_normals_are_unit_vectors(self):
        mesh = build_coastal_mesh(square_region(), spacing_km=2.0)
        for node in mesh.nodes:
            assert math.hypot(*node.onshore_normal) == pytest.approx(1.0)

    def test_normals_point_inland(self):
        # Every normal should point toward the island interior (the
        # square's center), so following it reduces distance to centroid.
        region = square_region()
        mesh = build_coastal_mesh(region, spacing_km=2.0)
        proj = mesh.projection
        for node in mesh.nodes:
            x, y = proj.to_xy(node.point)
            nx, ny = node.onshore_normal
            # centroid is at (0,0) in its own projection
            assert (0.0 - x) * nx + (0.0 - y) * ny > 0.0

    def test_override_bearing_used(self, oahu_region):
        mesh = build_coastal_mesh(oahu_region, spacing_km=2.0)
        for node in mesh.nodes_in_segment("pearl-harbor"):
            assert node.onshore_normal == pytest.approx((0.0, 1.0))

    def test_shelf_factor_propagates(self):
        region = square_region()
        mesh = build_coastal_mesh(region, spacing_km=2.0)
        south = mesh.nodes_in_segment("south")
        assert south and all(n.shelf_factor == 1.5 for n in south)

    def test_nodes_lie_near_the_shoreline(self):
        region = square_region()
        mesh = build_coastal_mesh(region, spacing_km=2.0)
        for node in mesh.nodes:
            assert region.distance_to_shore_km(node.point) < 0.2


class TestMeshQueries:
    def test_segment_slices_cover_all_nodes(self):
        mesh = build_coastal_mesh(square_region(), spacing_km=2.0)
        slices = mesh.segment_slices()
        covered = sorted(
            i for s in slices.values() for i in range(s.start, s.stop)
        )
        assert covered == list(range(len(mesh)))

    def test_segment_slices_match_segment_names(self):
        mesh = build_coastal_mesh(square_region(), spacing_km=2.0)
        for name, s in mesh.segment_slices().items():
            assert all(
                mesh.nodes[i].segment_name == name for i in range(s.start, s.stop)
            )

    def test_array_shapes(self):
        mesh = build_coastal_mesh(square_region(), spacing_km=2.0)
        n = len(mesh)
        assert mesh.xy_km.shape == (n, 2)
        assert mesh.normals.shape == (n, 2)
        assert mesh.shelf_factors.shape == (n,)

    def test_geometry_arrays_are_built_once_and_read_only(self):
        mesh = build_coastal_mesh(square_region(), spacing_km=2.0)
        for name in ("xy_km", "normals", "shelf_factors"):
            array = getattr(mesh, name)
            assert getattr(mesh, name) is array, name
            assert not array.flags.writeable, name

    def test_xy_roundtrip(self):
        mesh = build_coastal_mesh(square_region(), spacing_km=2.0)
        proj: LocalProjection = mesh.projection
        xy = mesh.xy_km
        for i, node in enumerate(mesh.nodes):
            x, y = proj.to_xy(node.point)
            assert np.allclose(xy[i], [x, y])
