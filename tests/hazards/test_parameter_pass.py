"""The array-native parameter pass and track points against the object path.

``EnsembleGenerator.sample_parameter_block`` draws a whole block of storm
parameters from one normal matrix; it must consume the rng exactly as the
scalar ``sample_parameters`` loop does and return the same parameters
bitwise, as (count, 7) parameter rows.  ``linear_track_points`` + ``SurgeModel.point_columns`` must give
the columns ``track_columns`` gives for the ``StormTrack`` objects
``StormParameters.to_track`` builds, and reject what those objects reject
with the same error type.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import HazardError, SerializationError, TopologyError
from repro.geo.coords import GeoPoint
from repro.hazards.hurricane.ensemble import (
    PARAM_COLUMNS,
    StormParameters,
    params_from_row,
    params_to_row,
)
from repro.hazards.hurricane.standard import standard_oahu_generator
from repro.hazards.hurricane.surge import TrackColumns
from repro.hazards.hurricane.track import linear_track_points
from repro.io.scenario_io import scenario_from_dict, scenario_to_dict
from repro.sampling.generation import PlanSampledGenerator
from repro.sampling.plans import ImportancePlan, StratifiedPlan

GENERATOR = standard_oahu_generator()
SCENARIO = GENERATOR.scenario


def with_scenario(**changes):
    generator = standard_oahu_generator()
    generator.scenario = replace(SCENARIO, **changes)
    return generator


def as_params(rows) -> list[StormParameters]:
    """The parameter pass's (count, 7) rows as parameter objects."""
    assert rows.shape == (len(rows), len(PARAM_COLUMNS))
    return [params_from_row(row) for row in rows]


def scalar_stream(generator, count, seed, offsets=None):
    rng = np.random.default_rng(seed)
    params = [
        generator.sample_parameters(
            rng, offset_km=None if offsets is None else float(offsets[i])
        )
        for i in range(count)
    ]
    return params, rng


@pytest.mark.parametrize(
    "generator",
    [
        GENERATOR,
        with_scenario(
            track_offset_sd_km=0.0,
            heading_sd_deg=0.0,
            pressure_sd_mb=0.0,
            rmw_log_sd=0.0,
            forward_speed_sd_kmh=0.0,
        ),
        # Wide spreads against tight bounds: most draws clip.
        with_scenario(
            pressure_sd_mb=40.0,
            pressure_bounds_mb=(968.0, 975.0),
            forward_speed_sd_kmh=30.0,
            forward_speed_bounds_kmh=(15.0, 20.0),
        ),
    ],
    ids=["plain", "zero-sd", "clipped"],
)
@pytest.mark.parametrize("seed", [0, 7, 20220522])
def test_block_draw_is_the_scalar_stream(generator, seed):
    count = 57
    expected, scalar_rng = scalar_stream(generator, count, seed)
    block_rng = np.random.default_rng(seed)
    assert as_params(generator.sample_parameter_block(block_rng, count)) == expected
    assert as_params(generator.sample_all_parameters(count, seed)) == expected
    # Both leave the rng at the same point of its stream.
    assert block_rng.random() == scalar_rng.random()


def test_clipped_scenario_really_clips():
    generator = with_scenario(
        pressure_sd_mb=40.0,
        pressure_bounds_mb=(968.0, 975.0),
        forward_speed_sd_kmh=30.0,
        forward_speed_bounds_kmh=(15.0, 20.0),
    )
    params = as_params(generator.sample_all_parameters(200, 3))
    pressures = {p.central_pressure_mb for p in params}
    speeds = {p.forward_speed_kmh for p in params}
    assert {968.0, 975.0} <= pressures and {15.0, 20.0} <= speeds


@pytest.mark.parametrize(
    "plan",
    [StratifiedPlan(), ImportancePlan(shift_sd=1.0, scale=2.0)],
    ids=["stratified", "importance"],
)
def test_plan_sampled_pass_is_the_scalar_stream(plan):
    count, seed = 40, 11
    wrapped = PlanSampledGenerator(GENERATOR, plan)
    rng = np.random.default_rng(seed)
    offsets = plan.sample_offsets(count, rng, wrapped.offset_sd_km)
    expected = [
        GENERATOR.sample_parameters(rng, offset_km=float(offsets[i]))
        for i in range(count)
    ]
    assert as_params(wrapped.sample_all_parameters(count, seed)) == expected


def test_offsets_must_match_the_count():
    with pytest.raises(HazardError):
        GENERATOR.sample_parameter_block(
            np.random.default_rng(0), 3, offsets_km=[0.0, 1.0]
        )


storm_parameters = st.builds(
    lambda lat, lon, heading, pressure, rmw, speed: StormParameters(
        landfall=GeoPoint(lat, lon),
        heading_deg=heading,
        central_pressure_mb=pressure,
        rmw_km=rmw,
        forward_speed_kmh=speed,
        track_offset_km=0.0,
    ),
    st.floats(min_value=-60.0, max_value=60.0),
    st.floats(min_value=-179.0, max_value=179.0),
    st.floats(min_value=0.0, max_value=359.99),
    st.floats(min_value=850.0, max_value=1012.9),
    st.floats(min_value=0.1, max_value=200.0),
    st.floats(min_value=0.5, max_value=60.0),
)


def columns_from_arrays(surge, params) -> TrackColumns:
    def column(attr):
        return np.array([attr(p) for p in params])

    times, lat, lon = linear_track_points(
        column(lambda p: p.landfall.lat),
        column(lambda p: p.landfall.lon),
        column(lambda p: p.heading_deg),
        column(lambda p: p.forward_speed_kmh),
    )
    return surge.point_columns(
        times,
        lat,
        lon,
        np.repeat(column(lambda p: p.central_pressure_mb)[:, None], 3, axis=1),
        np.repeat(column(lambda p: p.rmw_km)[:, None], 3, axis=1),
    )


@given(st.lists(storm_parameters, min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_array_columns_are_the_track_columns(params):
    surge = GENERATOR._surge
    expected = surge.track_columns([p.to_track("t") for p in params])
    got = columns_from_arrays(surge, params)
    assert got.times == expected.times
    for name in TrackColumns.__dataclass_fields__:
        if name != "times":
            assert np.array_equal(getattr(got, name), getattr(expected, name)), name


@given(storm_parameters)
@settings(max_examples=60, deadline=None)
def test_track_points_are_the_synthesized_points(p):
    track = p.to_track("t")
    times, lat, lon = linear_track_points(
        [p.landfall.lat], [p.landfall.lon], [p.heading_deg], [p.forward_speed_kmh]
    )
    assert times == [q.time_h for q in track.points]
    assert lat[0].tolist() == [q.center.lat for q in track.points]
    assert lon[0].tolist() == [q.center.lon for q in track.points]


BASE = StormParameters(
    landfall=GeoPoint(21.3, -158.0),
    heading_deg=335.0,
    central_pressure_mb=972.0,
    rmw_km=35.0,
    forward_speed_kmh=18.0,
    track_offset_km=0.0,
)


@pytest.mark.parametrize(
    "bad",
    [
        {"central_pressure_mb": 849.0},
        {"central_pressure_mb": 1013.0},
        {"rmw_km": 0.0},
        {"rmw_km": -3.0},
        {"forward_speed_kmh": 0.0},
        {"forward_speed_kmh": -5.0},
    ],
    ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()),
)
def test_invalid_parameters_raise_what_the_objects_raise(bad):
    params = replace(BASE, **bad)
    with pytest.raises(HazardError) as object_error:
        params.to_track("t")
    uniforms = np.array(
        [np.random.default_rng(i).random(GENERATOR.mesh_size) for i in (0, 1)]
    )
    with pytest.raises(HazardError) as block_error:
        GENERATOR.realize_block(
            np.array([params_to_row(BASE), params_to_row(params)]), uniforms
        )
    assert type(block_error.value) is type(object_error.value)


def test_point_checks_match_the_track_checks():
    surge = GENERATOR._surge
    lat = np.full((1, 3), 21.0)
    lon = np.full((1, 3), -158.0)
    pressure = np.full((1, 3), 970.0)
    rmw = np.full((1, 3), 30.0)
    surge.point_columns([-1.0, 0.0, 1.0], lat, lon, pressure, rmw)
    with pytest.raises(HazardError, match="strictly increasing"):
        surge.point_columns([-1.0, 0.0, 0.0], lat, lon, pressure, rmw)
    with pytest.raises(HazardError, match="at least one track"):
        surge.point_columns([-1.0, 0.0, 1.0], *(a[:0] for a in (lat, lon, pressure, rmw)))
    with pytest.raises(TopologyError):
        surge.point_columns([-1.0, 0.0, 1.0], lat + 80.0, lon, pressure, rmw)
    with pytest.raises(TopologyError):
        surge.point_columns([-1.0, 0.0, 1.0], lat, lon - 30.0, pressure, rmw)


@pytest.mark.parametrize(
    "field",
    [
        "track_offset_sd_km",
        "heading_sd_deg",
        "pressure_sd_mb",
        "rmw_log_sd",
        "forward_speed_sd_kmh",
    ],
)
def test_a_negative_spread_is_rejected_with_the_scenario(field):
    """The block draw scales normals by hand, so the spec rejects what
    ``rng.normal`` would have: a negative standard deviation."""
    with pytest.raises(ValueError):
        np.random.default_rng(0).normal(0.0, -1.0)
    with pytest.raises(HazardError, match="cannot be negative"):
        replace(SCENARIO, **{field: -1.0})
    document = scenario_to_dict(SCENARIO)
    document[field] = -1.0
    with pytest.raises(SerializationError, match="cannot be negative"):
        scenario_from_dict(document)
