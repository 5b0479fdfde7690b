"""Figure 4: the Oahu power-assets topology.

Benchmarks building the full synthetic geography (coastline, terrain,
catalog, coastal mesh) and prints the asset inventory the paper maps.
"""

from __future__ import annotations

from repro.geo.catalog import AssetRole
from repro.geo import build_oahu_catalog, build_oahu_region, build_oahu_terrain
from repro.hazards.hurricane.mesh import build_coastal_mesh


def build_everything():
    region = build_oahu_region()
    terrain = build_oahu_terrain(region)
    catalog = build_oahu_catalog()
    mesh = build_coastal_mesh(region)
    return region, terrain, catalog, mesh


def test_fig04_topology(benchmark):
    region, terrain, catalog, mesh = benchmark(build_everything)

    print()
    print("Figure 4 (reproduced): Oahu power assets topology")
    print(f"  shoreline segments: {len(region.segments)}, mesh nodes: {len(mesh)}")
    for role in AssetRole:
        assets = catalog.with_role(role)
        print(f"  {role.value} ({len(assets)}):")
        for asset in assets:
            inland = region.distance_to_shore_km(asset.location)
            print(
                f"    {asset.name:32s} {asset.location}  "
                f"elev={asset.elevation_m:6.1f} m  shore={inland:4.1f} km"
            )

    assert len(catalog.with_role(AssetRole.CONTROL_CENTER)) >= 3
    assert len(catalog.with_role(AssetRole.DATA_CENTER)) >= 2
    assert len(catalog.with_role(AssetRole.POWER_PLANT)) >= 5
    assert len(catalog.with_role(AssetRole.SUBSTATION)) >= 10
    assert len(mesh) > 50
