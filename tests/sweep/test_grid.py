"""The axis-product grid builder."""

from __future__ import annotations

import pytest

from repro.api import StudyConfig
from repro.errors import ConfigurationError
from repro.hazards.fragility import ThresholdFragility
from repro.sweep import category_generator, sweep_grid


def test_no_axes_returns_base():
    base = StudyConfig(n_realizations=10)
    assert sweep_grid(base) == [base]


def test_default_base_is_paper_config():
    (config,) = sweep_grid()
    assert config == StudyConfig()


def test_cross_product_size_and_order():
    grid = sweep_grid(
        StudyConfig(n_realizations=10),
        configurations=["2", "6"],
        scenarios=["hurricane", "hurricane+intrusion"],
        seed=[1, 2, 3],
    )
    assert len(grid) == 2 * 2 * 3
    # Last axis varies fastest, like nested loops.
    assert [c.seed for c in grid[:3]] == [1, 2, 3]
    assert all(c.configurations == ("2",) for c in grid[:6])
    assert all(c.configurations == ("6",) for c in grid[6:])


def test_bare_strings_become_single_element_studies():
    grid = sweep_grid(StudyConfig(n_realizations=10), configurations=["2", "2-2"])
    assert [c.configurations for c in grid] == [("2",), ("2-2",)]
    # An explicit tuple keeps its multi-element meaning.
    grid = sweep_grid(
        StudyConfig(n_realizations=10), configurations=[("2", "2-2")]
    )
    assert grid[0].configurations == ("2", "2-2")


def test_unvaried_fields_come_from_base():
    base = StudyConfig(n_realizations=123, seed=99)
    grid = sweep_grid(base, configurations=["2", "6"])
    assert all(c.n_realizations == 123 and c.seed == 99 for c in grid)


def test_unknown_axis_rejected():
    with pytest.raises(ConfigurationError, match="unknown sweep axis"):
        sweep_grid(StudyConfig(n_realizations=10), architectures=["2"])


def test_empty_axis_rejected():
    with pytest.raises(ConfigurationError, match="no values"):
        sweep_grid(StudyConfig(n_realizations=10), configurations=[])


def test_colliding_axes_rejected():
    with pytest.raises(ConfigurationError, match="collide"):
        sweep_grid(
            StudyConfig(n_realizations=10),
            threshold=[0.5],
            fragility=[ThresholdFragility()],
        )


def test_typo_in_axis_value_fails_at_build_time():
    with pytest.raises(ConfigurationError, match="architecture"):
        sweep_grid(StudyConfig(n_realizations=10), configurations=["2", "nope"])


def test_threshold_axis_builds_fragility_models():
    grid = sweep_grid(StudyConfig(n_realizations=10), threshold=[0.5, 1.0])
    assert [c.fragility.threshold_m for c in grid] == [0.5, 1.0]


def test_category_axis_builds_generators():
    grid = sweep_grid(StudyConfig(n_realizations=10), category=[1, 3])
    names = [c.generator.scenario.name for c in grid]
    assert names == ["oahu-cat1", "oahu-cat3"]
    # Different categories mean different hazard groups.
    assert grid[0].cache_key() != grid[1].cache_key()


def test_category_generator_rejects_bad_category():
    with pytest.raises(ConfigurationError, match="category"):
        category_generator(9)


def test_category_generator_is_built_once_per_category():
    assert category_generator(2) is category_generator(2)
    assert category_generator(1) is not category_generator(2)
    first = sweep_grid(StudyConfig(n_realizations=10), category=[1, 3])
    again = sweep_grid(StudyConfig(n_realizations=10), category=[1, 3])
    assert [c.generator for c in first] == [c.generator for c in again]
    assert all(a.generator is b.generator for a, b in zip(first, again))


def test_shared_category_generators_leave_sweep_results_unchanged():
    from repro.api import run_study
    from repro.geo import build_oahu_catalog, build_oahu_region
    from repro.hazards.hurricane.ensemble import EnsembleGenerator
    from repro.hazards.hurricane.inundation import ExtensionParams
    from repro.hazards.hurricane.standard import (
        OAHU_SOUTH_SHORE_BASIN,
        oahu_scenario_for_category,
    )
    from repro.io.results_io import matrix_to_dict
    from repro.sweep import run_sweep

    base = StudyConfig(n_realizations=30, configurations=("2", "6-6"))
    first = run_sweep(sweep_grid(base, category=[2, 3]))
    again = run_sweep(sweep_grid(base, category=[2, 3]))
    for category, a, b in zip([2, 3], first.cells, again.cells):
        assert matrix_to_dict(a.matrix) == matrix_to_dict(b.matrix)
        # A generator built fresh for the category gives the same study.
        fresh = EnsembleGenerator(
            region=build_oahu_region(),
            catalog=build_oahu_catalog(),
            scenario=oahu_scenario_for_category(category),
            extension_params=ExtensionParams(basins=(OAHU_SOUTH_SHORE_BASIN,)),
        )
        solo = run_study(base.replace(generator=fresh))
        assert matrix_to_dict(solo.matrix) == matrix_to_dict(a.matrix)
