"""DC power flow and proportional dispatch.

Standard B-theta DC power flow: bus angles solve ``B' theta = P`` with a
slack bus pinned to zero, line flow is ``(theta_i - theta_j) / x``.
Dispatch scales every generator proportionally to meet total served
demand (the simple AGC abstraction a SCADA master implements).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GridModelError
from repro.grid.model import GridModel, Line


@dataclass(frozen=True)
class PowerFlowResult:
    """Flows and injections of one DC power-flow solution."""

    flows_mw: dict[tuple[str, str], float]
    injections_mw: dict[str, float]
    served_demand_mw: float

    def overloaded_lines(self, grid: GridModel, tolerance: float = 1.0) -> list[Line]:
        """Lines carrying more than ``tolerance`` times their capacity."""
        out = []
        for line in grid.lines:
            flow = self.flows_mw.get(line.key)
            if flow is not None and abs(flow) > tolerance * line.capacity_mw:
                out.append(line)
        return out

    def max_loading(self, grid: GridModel) -> float:
        """Highest |flow| / capacity ratio across lines in service."""
        ratios = [
            abs(self.flows_mw[line.key]) / line.capacity_mw
            for line in grid.lines
            if line.key in self.flows_mw
        ]
        return max(ratios, default=0.0)


def proportional_dispatch(
    grid: GridModel,
    buses: list[str] | None = None,
    out_generators: set[str] = frozenset(),
) -> dict[str, float]:
    """Scale available generators to meet the (sub)grid's demand.

    ``buses`` restricts the balance to an island of the grid; generators
    in ``out_generators`` are unavailable.  Raises if the island cannot
    cover its demand (callers shed load instead).
    """
    bus_set = set(buses) if buses is not None else set(grid.buses)
    # Sum in sorted bus order: a set's order depends on PYTHONHASHSEED.
    demand = sum(grid.buses[b].demand_mw for b in sorted(bus_set))
    available = [
        g
        for g in grid.generators.values()
        if g.bus in bus_set and g.name not in out_generators
    ]
    capacity = sum(g.capacity_mw for g in available)
    if demand > 0 and capacity < demand - 1e-9:
        raise GridModelError(
            f"island demand {demand:.0f} MW exceeds available capacity "
            f"{capacity:.0f} MW"
        )
    if capacity == 0.0:
        return {}
    scale = demand / capacity
    return {g.name: g.capacity_mw * scale for g in available}


def solve_dc_powerflow(
    grid: GridModel,
    dispatch: dict[str, float] | None = None,
    out_lines: set[tuple[str, str]] = frozenset(),
) -> PowerFlowResult:
    """Solve DC power flow for the connected component of the slack bus.

    ``out_lines`` removes lines from service.  The slack bus is the first
    bus hosting an available generator; any mismatch lands there (standard
    DC slack convention).
    """
    if dispatch is None:
        dispatch = proportional_dispatch(grid)
    lines = [l for l in grid.lines if l.key not in out_lines]
    if not lines:
        raise GridModelError("no lines in service")

    bus_names = sorted(grid.buses)
    index = {name: i for i, name in enumerate(bus_names)}
    n = len(bus_names)

    injections = np.zeros(n)
    for name, bus in grid.buses.items():
        injections[index[name]] -= bus.demand_mw
    for gen_name, mw in dispatch.items():
        gen = grid.generators[gen_name]
        injections[index[gen.bus]] += mw

    # Build susceptance matrix over in-service lines.
    b_matrix = np.zeros((n, n))
    for line in lines:
        i, j = index[line.a], index[line.b]
        b = 1.0 / line.reactance_pu
        b_matrix[i, i] += b
        b_matrix[j, j] += b
        b_matrix[i, j] -= b
        b_matrix[j, i] -= b

    slack = None
    for gen_name in sorted(dispatch):
        slack = index[grid.generators[gen_name].bus]
        break
    if slack is None:
        raise GridModelError("no generation dispatched; nothing to solve")

    keep = [i for i in range(n) if i != slack]
    reduced = b_matrix[np.ix_(keep, keep)]
    rhs = injections[keep]
    try:
        theta_reduced = np.linalg.solve(reduced, rhs)
    except np.linalg.LinAlgError:
        raise GridModelError(
            "singular susceptance matrix: the in-service grid is split; "
            "solve each island separately"
        ) from None
    theta = np.zeros(n)
    theta[keep] = theta_reduced

    flows: dict[tuple[str, str], float] = {}
    for line in lines:
        i, j = index[line.a], index[line.b]
        flows[line.key] = (theta[i] - theta[j]) / line.reactance_pu
    served = sum(grid.buses[b].demand_mw for b in bus_names)
    return PowerFlowResult(
        flows_mw=flows,
        injections_mw={name: float(injections[index[name]]) for name in bus_names},
        served_demand_mw=served,
    )
