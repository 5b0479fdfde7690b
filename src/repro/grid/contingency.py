"""Contingency analysis and the SCADA-coupled cascade model.

This is the extension that closes the loop between the compound-threat
analysis and the physical grid: what does losing the SCADA system *cost*?

* With SCADA **operational**, operators redispatch after a contingency:
  each electrical island serves ``min(demand, capacity)`` and line limits
  are respected by curtailment -- no cascading.
* With SCADA **unavailable** (red/gray operational state), generation
  stays on blind proportional dispatch: overloaded lines trip, the grid
  re-islands, and the cascade iterates to a fixed point.  The difference
  in served load is the value of the control system.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import networkx as nx

from repro.errors import GridModelError
from repro.grid.model import Bus, Generator, GridModel, Line
from repro.grid.powerflow import proportional_dispatch, solve_dc_powerflow


@dataclass(frozen=True)
class Island:
    """One electrically connected component after outages."""

    buses: frozenset[str]
    demand_mw: float
    capacity_mw: float

    @property
    def served_mw(self) -> float:
        return min(self.demand_mw, self.capacity_mw)


@dataclass(frozen=True)
class CascadeResult:
    """Fixed point of a contingency (possibly cascaded)."""

    served_fraction: float
    tripped_lines: tuple[tuple[str, str], ...]
    rounds: int
    islands: tuple[Island, ...]

    @property
    def blackout(self) -> bool:
        return self.served_fraction < 0.5


def _islands(grid: GridModel, out_lines: set[tuple[str, str]]) -> list[frozenset[str]]:
    g = nx.Graph()
    g.add_nodes_from(grid.buses)
    for line in grid.lines:
        if line.key not in out_lines:
            g.add_edge(line.a, line.b)
    return [frozenset(c) for c in nx.connected_components(g)]


def _island_info(grid: GridModel, buses: frozenset[str]) -> Island:
    # Sorted bus order: a frozenset's order depends on PYTHONHASHSEED.
    demand = sum(grid.buses[b].demand_mw for b in sorted(buses))
    capacity = sum(
        g.capacity_mw for g in grid.generators.values() if g.bus in buses
    )
    return Island(buses, demand, capacity)


def _island_subgrid(
    grid: GridModel, island: Island, out_lines: set[tuple[str, str]]
) -> GridModel:
    """A standalone grid for one island, demand scaled to what's served."""
    sub = GridModel()
    scale = island.served_mw / island.demand_mw if island.demand_mw > 0 else 0.0
    for name in sorted(island.buses):
        bus = grid.buses[name]
        sub.add_bus(Bus(name, bus.demand_mw * scale))
    for line in grid.lines:
        if line.key not in out_lines and line.a in island.buses and line.b in island.buses:
            sub.add_line(line)
    for gen in grid.generators.values():
        if gen.bus in island.buses:
            sub.add_generator(gen)
    return sub


def simulate_contingency(
    grid: GridModel,
    initial_outages: set[tuple[str, str]],
    scada_operational: bool,
    overload_tolerance: float = 1.05,
    max_rounds: int = 25,
) -> CascadeResult:
    """Run a contingency to its fixed point.

    ``initial_outages`` are line keys taken out (storm damage or attack
    aftermath).  With SCADA up the result is immediate (operators secure
    the system); without it, overloads trip lines round by round.
    """
    for key in initial_outages:
        if key not in {l.key for l in grid.lines}:
            raise GridModelError(f"unknown line {key}")
    total_demand = grid.total_demand_mw
    if total_demand <= 0:
        raise GridModelError("grid has no demand to serve")

    out = set(initial_outages)
    rounds = 0
    while True:
        rounds += 1
        if rounds > max_rounds:
            raise GridModelError("cascade did not converge; check grid data")
        islands = [_island_info(grid, c) for c in _islands(grid, out)]
        if scada_operational:
            break
        tripped_this_round: set[tuple[str, str]] = set()
        for island in islands:
            if island.served_mw <= 0 or len(island.buses) < 2:
                continue
            sub = _island_subgrid(grid, island, out)
            if not sub.lines or not sub.generators:
                continue
            dispatch = proportional_dispatch(sub)
            if not dispatch:
                continue
            flow = solve_dc_powerflow(sub, dispatch)
            for line in flow.overloaded_lines(sub, overload_tolerance):
                tripped_this_round.add(line.key)
        if not tripped_this_round:
            break
        out |= tripped_this_round

    served = sum(i.served_mw for i in islands)
    return CascadeResult(
        served_fraction=served / total_demand,
        tripped_lines=tuple(sorted(out - initial_outages)),
        rounds=rounds,
        islands=tuple(islands),
    )


@dataclass(frozen=True)
class NMinus1Entry:
    line: tuple[str, str]
    islanded: bool
    max_loading: float
    served_fraction_with_scada: float
    served_fraction_without_scada: float


def n_minus_1_report(grid: GridModel, overload_tolerance: float = 1.05) -> list[NMinus1Entry]:
    """Screen every single-line outage with and without SCADA control."""
    entries = []
    for line in grid.lines:
        outage = {line.key}
        with_scada = simulate_contingency(grid, outage, True, overload_tolerance)
        without = simulate_contingency(grid, outage, False, overload_tolerance)
        islands = _islands(grid, outage)
        max_loading = 0.0
        for component in islands:
            island = _island_info(grid, component)
            if island.served_mw <= 0 or len(component) < 2:
                continue
            sub = _island_subgrid(grid, island, outage)
            if not sub.lines or not sub.generators:
                continue
            dispatch = proportional_dispatch(sub)
            if not dispatch:
                continue
            result = solve_dc_powerflow(sub, dispatch)
            max_loading = max(max_loading, result.max_loading(sub))
        entries.append(
            NMinus1Entry(
                line=line.key,
                islanded=len(islands) > 1,
                max_loading=max_loading,
                served_fraction_with_scada=with_scada.served_fraction,
                served_fraction_without_scada=without.served_fraction,
            )
        )
    return entries
