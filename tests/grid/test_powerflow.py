"""Tests for DC power flow and dispatch."""

from __future__ import annotations

import pytest

from repro.errors import GridModelError
from repro.grid.model import Bus, Generator, GridModel, Line, build_oahu_grid
from repro.grid.powerflow import proportional_dispatch, solve_dc_powerflow
from tests.grid.test_model import tiny_grid


class TestProportionalDispatch:
    def test_meets_demand(self):
        grid = tiny_grid()
        dispatch = proportional_dispatch(grid)
        assert sum(dispatch.values()) == pytest.approx(100.0)

    def test_scales_all_units_equally(self):
        grid = tiny_grid()
        grid.add_generator(Generator("G2", "load-bus", 100.0))
        dispatch = proportional_dispatch(grid)
        # 100 MW demand over 300 MW capacity: each unit runs at 1/3.
        assert dispatch["G1"] == pytest.approx(200.0 / 3.0)
        assert dispatch["G2"] == pytest.approx(100.0 / 3.0)

    def test_island_restriction(self):
        grid = tiny_grid()
        dispatch = proportional_dispatch(grid, buses=["gen-bus"])
        assert sum(dispatch.values()) == pytest.approx(0.0)

    def test_outaged_generator_excluded(self):
        grid = tiny_grid()
        with pytest.raises(GridModelError):
            proportional_dispatch(grid, out_generators={"G1"})

    def test_shortfall_raises(self):
        grid = tiny_grid()
        grid.buses["load-bus"] = Bus("load-bus", demand_mw=500.0)
        with pytest.raises(GridModelError):
            proportional_dispatch(grid)


class TestSolveDCPowerflow:
    def test_two_bus_flow_is_the_demand(self):
        grid = tiny_grid()
        result = solve_dc_powerflow(grid)
        assert result.flows_mw[("gen-bus", "load-bus")] == pytest.approx(100.0)

    def test_flow_splits_by_susceptance(self):
        grid = GridModel()
        grid.add_bus(Bus("g"))
        grid.add_bus(Bus("l", demand_mw=90.0))
        # Two parallel paths: reactances 0.1 and 0.2 -> flows 60 / 30.
        grid.add_bus(Bus("mid"))
        grid.add_line(Line("g", "l", 0.1, 200.0))
        grid.add_line(Line("g", "mid", 0.1, 200.0))
        grid.add_line(Line("mid", "l", 0.1, 200.0))
        grid.add_generator(Generator("G", "g", 100.0))
        result = solve_dc_powerflow(grid)
        direct = result.flows_mw[("g", "l")]
        indirect = result.flows_mw[("g", "mid")]
        assert direct == pytest.approx(60.0)
        assert indirect == pytest.approx(30.0)
        assert direct + indirect == pytest.approx(90.0)

    def test_energy_balance_at_load_bus(self):
        grid = build_oahu_grid()
        result = solve_dc_powerflow(grid)
        # Net flow into each bus equals its net injection.
        for name, injection in result.injections_mw.items():
            inflow = 0.0
            for (a, b), flow in result.flows_mw.items():
                if b == name:
                    inflow += flow
                if a == name:
                    inflow -= flow
            assert inflow == pytest.approx(-injection, abs=1e-6), name

    def test_healthy_oahu_is_secure(self):
        grid = build_oahu_grid()
        result = solve_dc_powerflow(grid)
        assert result.overloaded_lines(grid) == []
        assert result.max_loading(grid) < 0.9

    def test_out_lines_excluded(self):
        grid = build_oahu_grid()
        key = ("Halawa Substation", "Koolau Substation")
        result = solve_dc_powerflow(grid, out_lines={key})
        assert key not in result.flows_mw

    def test_islanding_detected_as_singular(self):
        grid = tiny_grid()
        with pytest.raises(GridModelError):
            solve_dc_powerflow(grid, out_lines={("gen-bus", "load-bus")})

    def test_overload_detection(self):
        grid = GridModel()
        grid.add_bus(Bus("g"))
        grid.add_bus(Bus("l", demand_mw=100.0))
        grid.add_line(Line("g", "l", 0.1, 50.0))
        grid.add_generator(Generator("G", "g", 150.0))
        result = solve_dc_powerflow(grid)
        assert [l.key for l in result.overloaded_lines(grid)] == [("g", "l")]
        assert result.max_loading(grid) == pytest.approx(2.0)


#: The Honolulu island's dispatch after the west-side plants drop out,
#: printed with its float reprs: the scalar cascade solves exactly this.
_ISLAND_DISPATCH = """
from repro.grid.contingency import _island_info, _island_subgrid, _islands
from repro.grid.model import build_oahu_grid
from repro.grid.powerflow import proportional_dispatch
from repro.grid.storm_impact import damaged_grid

plants = {"Kahe Power Plant", "Kalaeloa Power Plant", "Waiau Power Plant"}
survivor, shed = damaged_grid(build_oahu_grid(), frozenset(plants))
dispatch = {}
for component in _islands(survivor, set()):
    island = _island_info(survivor, component)
    sub = _island_subgrid(survivor, island, set())
    if island.served_mw > 0 and sub.generators:
        dispatch.update(proportional_dispatch(sub))
print(repr(sorted(dispatch.items())), repr(shed))
"""


def test_island_dispatch_does_not_depend_on_the_hash_seed():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    outputs = []
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
        result = subprocess.run(
            [sys.executable, "-c", _ISLAND_DISPATCH],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        outputs.append(result.stdout)
    assert "H-POWER WTE" in outputs[0]
    assert outputs[0] == outputs[1]
