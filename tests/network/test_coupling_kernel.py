"""The batched grid/WAN coupling kernel against its scalar oracle."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NetworkModelError
from repro.geo import DRFORTRESS, HONOLULU_CC, KAHE_CC, WAIAU_CC, build_oahu_catalog
from repro.grid.kernel import GridKernel, lookup_patterns
from repro.grid.model import build_oahu_grid
from repro.grid.storm_impact import damage_pattern_groups
from repro.network.coupling import CouplingKernel
from repro.network.interdependency import OAHU_POP_POWER, InterdependencyParams
from repro.network.topology import build_site_wan
from repro.obs.observer import Observability, activate
from tests.network.coupling_reference import reference_coupling

GRID = build_oahu_grid()
WAN = build_site_wan(build_oahu_catalog(), [HONOLULU_CC, WAIAU_CC, KAHE_CC, DRFORTRESS])
BUSES = tuple(sorted(GRID.buses))
EXACT_FIELDS = (
    "out_buses",
    "shed_at_damaged_mw",
    "scada_operational",
    "dead_pops",
    "connected_sites",
    "rounds",
)


def kernel_for(params: InterdependencyParams) -> CouplingKernel:
    return CouplingKernel(GRID, WAN, dict(OAHU_POP_POWER), params)


def random_codes(seed: int, count: int) -> np.ndarray:
    """Distinct codes mixing light and heavy damage (both SCADA states)."""
    rng = np.random.default_rng(seed)
    rates = rng.uniform(0.0, 0.5, size=(count, 1))
    failed = rng.random((count, len(BUSES))) < rates
    codes = failed.astype(np.int64) @ np.left_shift(1, np.arange(len(BUSES), dtype=np.int64))
    return np.unique(codes)


class TestOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        failed=st.frozensets(st.sampled_from(BUSES)),
        threshold=st.floats(
            min_value=0.0, max_value=1.0, exclude_min=True, allow_nan=False
        ),
        required=st.integers(min_value=1, max_value=4),
    )
    def test_kernel_matches_the_scalar_cascade(self, failed, threshold, required):
        params = InterdependencyParams(
            pop_power_threshold=threshold, required_connected_sites=required
        )
        kernel = kernel_for(params)
        code = kernel.grid.code_of(failed)
        (row,) = kernel.rows(np.array([code]))
        isolated, summary = kernel.summary(code, row)
        expected_isolated, expected = reference_coupling(
            GRID, WAN, OAHU_POP_POWER, params, failed
        )
        assert isolated == expected_isolated
        for field in EXACT_FIELDS:
            assert summary[field] == expected[field], field
        assert summary["served_fraction"] == pytest.approx(
            expected["served_fraction"], rel=1e-12, abs=0.0
        )

    def test_every_oahu_bus_outage_and_the_empty_pattern(self):
        params = InterdependencyParams()
        kernel = kernel_for(params)
        patterns = [frozenset()] + [frozenset({bus}) for bus in BUSES]
        codes = np.array([kernel.grid.code_of(p) for p in patterns])
        for pattern, code, row in zip(patterns, codes.tolist(), kernel.rows(codes)):
            isolated, summary = kernel.summary(code, row)
            expected_isolated, expected = reference_coupling(
                GRID, WAN, OAHU_POP_POWER, params, pattern
            )
            assert isolated == expected_isolated
            assert summary == expected

    def test_a_single_round_budget_fails_like_the_scalar_loop(self):
        params = InterdependencyParams(required_connected_sites=4, max_rounds=1)
        failed = frozenset(OAHU_POP_POWER.values())
        with pytest.raises(NetworkModelError, match="did not converge"):
            reference_coupling(GRID, WAN, OAHU_POP_POWER, params, failed)
        kernel = kernel_for(params)
        with pytest.raises(NetworkModelError, match="did not converge"):
            kernel.run(np.array([kernel.grid.code_of(failed)]))


class TestBatchInvariance:
    def test_a_pattern_alone_equals_the_pattern_in_a_batch_of_500(self):
        # A tight coupling so a good share of patterns lose SCADA and run
        # the stacked uncontrolled cascade.
        kernel = kernel_for(
            InterdependencyParams(pop_power_threshold=0.9, required_connected_sites=3)
        )
        codes = random_codes(seed=11, count=900)[:500]
        assert len(codes) == 500
        batch = kernel.run(codes)
        assert 0 < batch.scada_operational.sum() < len(codes)
        for i, code in enumerate(codes):
            alone = kernel.run(codes[i : i + 1])
            for field in (
                "isolated",
                "shed_at_damaged_mw",
                "served_fraction",
                "scada_operational",
                "dead_pops",
                "connected_sites",
                "rounds",
            ):
                np.testing.assert_array_equal(
                    getattr(alone, field)[0], getattr(batch, field)[i], err_msg=field
                )


class TestPackedPatterns:
    def test_codes_follow_the_bus_order_and_ignore_other_assets(self):
        names = ["Honolulu Control Center", BUSES[3], BUSES[0]]
        failed = np.array(
            [[True, False, False], [False, True, True], [False, False, False]]
        )
        codes, inverse = damage_pattern_groups(failed, names, BUSES)
        assert codes.tolist() == [0, (1 << 3) | 1]
        assert inverse.tolist() == [0, 1, 0]

    def test_no_bus_columns_is_the_single_no_damage_pattern(self):
        codes, inverse = damage_pattern_groups(
            np.ones((4, 1), dtype=bool), ["Honolulu Control Center"], BUSES
        )
        assert codes.tolist() == [0]
        assert inverse.tolist() == [0, 0, 0, 0]

    def test_parallel_lines_under_one_key_are_rejected(self):
        from repro.errors import GridModelError
        from repro.grid.model import Bus, Generator, GridModel, Line

        grid = GridModel()
        grid.add_bus(Bus("a", 10.0))
        grid.add_bus(Bus("b", 10.0))
        grid.add_generator(Generator("g", "a", 50.0))
        grid.add_line(Line("a", "b", 0.1, 20.0))
        grid.add_line(Line("a", "b", 0.2, 20.0))
        with pytest.raises(GridModelError, match="distinct line keys"):
            GridKernel(grid)

    def test_code_round_trips_through_names(self):
        kernel = GridKernel(GRID)
        failed = frozenset({BUSES[2], BUSES[7], "not a bus"})
        code = kernel.code_of(failed)
        assert kernel.names_of(code) == (BUSES[2], BUSES[7])
        assert kernel.unpack(np.array([code]))[0].nonzero()[0].tolist() == [2, 7]


class TestStudyMemo:
    def test_lookups_count_hits_and_misses_per_unique_pattern(self):
        kernel = kernel_for(InterdependencyParams())
        memo: dict = {}
        obs = Observability()
        with activate(obs):
            first = lookup_patterns(memo, kernel, np.array([0, 1, 2]), kernel.rows)
            second = lookup_patterns(memo, kernel, np.array([2, 3]), kernel.rows)
        assert second[0] == first[2]
        assert obs.metrics.counter("pipeline.coupling_cache.miss") == 4
        assert obs.metrics.counter("pipeline.coupling_cache.hit") == 1
        assert len(memo[kernel]) == 4

    def test_dc_rounds_are_counted_for_patterns_that_lose_scada(self):
        kernel = kernel_for(
            InterdependencyParams(pop_power_threshold=0.9, required_connected_sites=3)
        )
        codes = random_codes(seed=3, count=200)
        obs = Observability()
        with activate(obs):
            result = kernel.run(codes)
        assert not result.scada_operational.all()
        assert obs.metrics.counter("interdependency.dc_rounds") >= 1
