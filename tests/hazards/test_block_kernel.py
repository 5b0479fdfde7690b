"""The block kernel against an independent per-realization oracle, bitwise.

``EnsembleGenerator.realize_block`` evaluates a block of realizations at
once: (R, T) track columns, the (R, T, N) surge peak, the dropout mask
from the block's (R, N) uniform draws,
block shoreline smoothing and one inland extension per row.  The oracle
here shares none of that code path: per realization it runs the
per-timestep reference sweep (``SurgeModel.run_reference``), smooths by
the definition (``smooth_shoreline_reference``, a pure-Python mean of the
positive readings in each clipped window), then extends with one
``W @ row``.  Any ULP of drift, or any dependence of a row's bits on the
block it sits in, fails here.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo import AssetCatalog, build_oahu_catalog, build_oahu_region
from repro.geo.coords import GeoPoint
from repro.hazards.hurricane.ensemble import (
    EnsembleGenerator,
    StormParameters,
    params_from_row,
    params_to_row,
)
from repro.hazards.hurricane.inundation import (
    ExtensionParams,
    smooth_shoreline,
    smooth_shoreline_reference,
)
from repro.hazards.hurricane.standard import (
    OAHU_SOUTH_SHORE_BASIN,
    standard_oahu_scenario,
)
from repro.hazards.hurricane.surge import SurgeModelParams


def _generator(
    extension: dict | None = None, catalog: AssetCatalog | None = None, **surge
) -> EnsembleGenerator:
    return EnsembleGenerator(
        region=build_oahu_region(),
        catalog=catalog or build_oahu_catalog(),
        scenario=standard_oahu_scenario(),
        surge_params=SurgeModelParams(**surge),
        extension_params=ExtensionParams(
            **(extension or {"basins": (OAHU_SOUTH_SHORE_BASIN,)})
        ),
    )


GENERATORS = {
    "dropout": _generator(),
    "no-dropout": _generator(dropout_probability=0.0),
    "negative-offset": _generator(sea_level_offset_m=-0.6),
    # Mapper variants: each moves the node support the surge kernel
    # evaluates, from a strict subset of the mesh to all of it.
    "no-basin": _generator({}),
    "window-0": _generator(
        {"basins": (OAHU_SOUTH_SHORE_BASIN,), "smoothing_window": 0}
    ),
    "window-4": _generator(
        {"basins": (OAHU_SOUTH_SHORE_BASIN,), "smoothing_window": 4}
    ),
    "whole-mesh": _generator(
        {"basins": (OAHU_SOUTH_SHORE_BASIN,), "influence_radius_km": 500.0}
    ),
    # One asset 14 km inland whose attenuation underflows to 0: no node
    # reaches it, so the support is empty and every depth is 0.
    "empty-support": _generator(
        {"inland_decay_km": 0.01},
        catalog=AssetCatalog.from_records(
            "oahu", [build_oahu_catalog().get("Wahiawa Substation")]
        ),
    ),
}


def oracle_depths(generator, index, params, rng) -> np.ndarray:
    surge = generator._surge.run_reference(
        params.to_track(f"{generator.scenario.name}-r{index}"), rng
    )
    mapper = generator._mapper
    smoothed = smooth_shoreline_reference(
        generator._mesh, surge.peak_wse_m, mapper.params.smoothing_window
    )
    return np.maximum(0.0, mapper._weights @ smoothed - mapper._elevations)


storm_parameters = st.builds(
    lambda lat, lon, heading, pressure, rmw, speed: StormParameters(
        landfall=GeoPoint(lat, lon),
        heading_deg=heading,
        central_pressure_mb=pressure,
        rmw_km=rmw,
        forward_speed_kmh=speed,
        track_offset_km=0.0,
    ),
    st.floats(min_value=20.6, max_value=22.0),
    st.floats(min_value=-158.9, max_value=-157.2),
    st.floats(min_value=0.0, max_value=359.9),
    st.floats(min_value=950.0, max_value=995.0),
    st.floats(min_value=12.0, max_value=70.0),
    st.floats(min_value=8.0, max_value=35.0),
)


def partitions(count: int, ragged: int) -> dict[str, list[range]]:
    """One-row blocks, ``ragged``-row blocks with a short last one, one block."""
    return {
        "one-row": [range(i, i + 1) for i in range(count)],
        "ragged": [range(i, min(i + ragged, count)) for i in range(0, count, ragged)],
        "full": [range(count)],
    }


@pytest.mark.parametrize("variant", sorted(GENERATORS))
@given(
    draws=st.lists(storm_parameters, min_size=1, max_size=23),
    ragged=st.integers(min_value=2, max_value=7),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=8, deadline=None)
def test_realize_block_matches_the_oracle_bitwise(variant, draws, ragged, seed):
    generator = GENERATORS[variant]
    seqs = np.random.SeedSequence(seed).spawn(len(draws))
    expected = np.array(
        [
            oracle_depths(generator, i, p, np.random.default_rng(seqs[i]))
            for i, p in enumerate(draws)
        ]
    )
    order = generator.asset_order
    for name, blocks in partitions(len(draws), ragged).items():
        rows = []
        for block in blocks:
            depths = generator.realize_block(
                np.array([params_to_row(draws[i]) for i in block]),
                np.array(
                    [
                        np.random.default_rng(seqs[i]).random(generator.mesh_size)
                        for i in block
                    ]
                ),
            )
            assert depths.shape == (len(block), len(order))
            rows += depths.tolist()
        assert np.array_equal(np.array(rows), expected), name


def test_the_oracle_sees_negative_offsets_and_dropout():
    """The variants really exercise what they name."""
    params = params_from_row(GENERATORS["dropout"].sample_all_parameters(4, 3)[0])
    low = GENERATORS["negative-offset"]._surge
    raw = low.run_reference(params.to_track("t")).raw_peak_wse_m
    assert np.any(raw == 0.0)  # sub-zero WSE never registers as a peak
    surge = GENERATORS["dropout"]._surge.run(
        params.to_track("t"), np.random.default_rng(0)
    )
    assert np.any((surge.peak_wse_m == 0.0) & (surge.raw_peak_wse_m > 0.0))


MESH = GENERATORS["dropout"]._mesh


def widened_reads(mapper) -> set[int]:
    """Nodes within the smoothing window of a weighted node, by brute force."""
    window = mapper.params.smoothing_window
    segment = [node.segment_name for node in mapper.mesh.nodes]
    read = [i for i in range(len(segment)) if np.any(mapper._weights[:, i] != 0.0)]
    return {
        j
        for i in read
        for j in range(len(segment))
        if abs(i - j) <= window and segment[i] == segment[j]
    }


@pytest.mark.parametrize("variant", sorted(GENERATORS))
def test_node_support_is_every_node_a_depth_reads(variant):
    mapper = GENERATORS[variant]._mapper
    support = mapper.node_support
    assert list(support) == sorted(widened_reads(mapper))
    outside = np.setdiff1d(np.arange(len(MESH)), support)
    assert not np.any(mapper._weights[:, outside] != 0.0)


@pytest.mark.parametrize("variant", sorted(GENERATORS))
@given(
    draws=st.lists(storm_parameters, min_size=1, max_size=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=8, deadline=None)
def test_the_support_carries_every_reading_a_depth_reads(variant, draws, seed):
    """Before the depth clamp at 0 hides anything: extended WSE per asset."""
    generator = GENERATORS[variant]
    surge, mapper = generator._surge, generator._mapper
    support = mapper.node_support
    columns = surge.track_columns([p.to_track("t") for p in draws])

    seqs = np.random.SeedSequence(seed).spawn(len(draws))
    uniforms = np.array([np.random.default_rng(s).random(len(MESH)) for s in seqs])

    raw, full, _ = surge.peak_block(columns, uniforms)
    part_raw, part, _ = surge.peak_block(columns, uniforms, nodes=support)
    assert np.array_equal(part_raw[:, support], raw[:, support])
    assert not np.any(np.delete(part_raw, support, axis=1))
    window = mapper.params.smoothing_window
    for row_full, row_part in zip(
        smooth_shoreline(MESH, full, window), smooth_shoreline(MESH, part, window)
    ):
        assert np.array_equal(mapper._weights @ row_part, mapper._weights @ row_full)


def test_mapper_variants_cover_subsets_and_the_whole_mesh():
    size = {name: len(g._mapper.node_support) for name, g in GENERATORS.items()}
    assert size["whole-mesh"] == len(MESH)
    assert size["empty-support"] == 0
    assert size["window-0"] < size["dropout"] < size["window-4"] < len(MESH)
    assert size["no-basin"] < len(MESH)

wse_blocks = st.integers(min_value=1, max_value=6).flatmap(
    lambda rows: st.lists(
        st.one_of(
            st.just(0.0),
            st.floats(min_value=-2.0, max_value=6.0),
        ),
        min_size=rows * len(MESH),
        max_size=rows * len(MESH),
    ).map(lambda xs, r=rows: np.array(xs).reshape(r, len(MESH)))
)


@given(wse_blocks, st.integers(min_value=0, max_value=4))
@settings(max_examples=40, deadline=None)
def test_block_smoothing_is_row_by_row_smoothing(block, window):
    smoothed = smooth_shoreline(MESH, block, window)
    assert smoothed.shape == block.shape
    for row, out in zip(block, smoothed):
        single = smooth_shoreline(MESH, row, window)
        assert np.array_equal(out, single)
        assert np.array_equal(single, smooth_shoreline_reference(MESH, row, window))
