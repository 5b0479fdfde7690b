"""The block kernel against an independent per-realization oracle, bitwise.

``EnsembleGenerator.realize_block`` evaluates a block of realizations at
once: (R, T) track columns, the (R, T, N) surge peak, per-row dropout,
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

from repro.geo import build_oahu_catalog, build_oahu_region
from repro.geo.coords import GeoPoint
from repro.hazards.hurricane.ensemble import EnsembleGenerator, StormParameters
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


def _generator(**surge) -> EnsembleGenerator:
    return EnsembleGenerator(
        region=build_oahu_region(),
        catalog=build_oahu_catalog(),
        scenario=standard_oahu_scenario(),
        surge_params=SurgeModelParams(**surge),
        extension_params=ExtensionParams(basins=(OAHU_SOUTH_SHORE_BASIN,)),
    )


GENERATORS = {
    "dropout": _generator(),
    "no-dropout": _generator(dropout_probability=0.0),
    "negative-offset": _generator(sea_level_offset_m=-0.6),
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
            realizations = generator.realize_block(
                list(block),
                [draws[i] for i in block],
                [np.random.default_rng(seqs[i]) for i in block],
            )
            assert [r.index for r in realizations] == list(block)
            rows += [[r.inundation.depths_m[a] for a in order] for r in realizations]
        assert np.array_equal(np.array(rows), expected), name


def test_the_oracle_sees_negative_offsets_and_dropout():
    """The variants really exercise what they name."""
    params = GENERATORS["dropout"].sample_all_parameters(4, 3)
    low = GENERATORS["negative-offset"]._surge
    raw = low.run_reference(params[0].to_track("t")).raw_peak_wse_m
    assert np.any(raw == 0.0)  # sub-zero WSE never registers as a peak
    surge = GENERATORS["dropout"]._surge.run(
        params[0].to_track("t"), np.random.default_rng(0)
    )
    assert np.any((surge.peak_wse_m == 0.0) & (surge.raw_peak_wse_m > 0.0))


MESH = GENERATORS["dropout"]._mesh

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
