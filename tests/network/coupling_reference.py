"""Scalar reference implementations of the batched grid kernels.

These are the per-pattern loops the kernels in :mod:`repro.grid.kernel`
and :mod:`repro.network.coupling` replaced, kept unchanged as test
oracles.  Both are built on
:func:`~repro.grid.contingency.simulate_contingency`.
"""

from __future__ import annotations

import networkx as nx

from repro.errors import NetworkModelError
from repro.grid.contingency import simulate_contingency
from repro.grid.model import GridModel
from repro.grid.storm_impact import damaged_grid
from repro.network.interdependency import InterdependencyParams
from repro.network.topology import WANTopology


def reference_coupling(
    grid: GridModel,
    wan: WANTopology,
    pop_to_bus: dict[str, str],
    params: InterdependencyParams,
    failed: frozenset[str],
) -> tuple[frozenset[str], dict]:
    """(isolated control sites, summary) for one damage pattern."""
    out_buses = frozenset(name for name in failed if name in grid.buses)
    survivor, shed = damaged_grid(grid, out_buses)
    degenerate = (
        not survivor.lines
        or not survivor.generators
        or survivor.total_demand_mw == 0
    )
    scada = True
    rounds = 0
    served_mw = 0.0
    while True:
        rounds += 1
        if rounds > params.max_rounds:
            raise NetworkModelError(
                "interdependency cascade did not converge"
            )
        bus_service: dict[str, float] = {}
        if not degenerate:
            cascade = simulate_contingency(survivor, set(), scada)
            for island in cascade.islands:
                fraction = (
                    island.served_mw / island.demand_mw
                    if island.demand_mw > 0
                    else 1.0
                )
                for bus in island.buses:
                    bus_service[bus] = fraction
            served_mw = cascade.served_fraction * survivor.total_demand_mw
        dead = {
            pop
            for pop, bus in pop_to_bus.items()
            if bus in out_buses
            or bus_service.get(bus, 0.0) < params.pop_power_threshold
        }
        graph = wan.graph.copy()
        graph.remove_nodes_from(dead)
        best_group: frozenset[str] = frozenset()
        for component in nx.connected_components(graph):
            group = frozenset(component & wan.site_nodes)
            if len(group) > len(best_group):
                best_group = group
        scada_next = scada and len(best_group) >= params.required_connected_sites
        if scada_next == scada:
            break
        scada = scada_next
    isolated = frozenset(wan.site_nodes - best_group)
    summary = {
        "out_buses": tuple(sorted(out_buses)),
        "shed_at_damaged_mw": shed,
        "served_fraction": (
            served_mw / grid.total_demand_mw if grid.total_demand_mw > 0 else 1.0
        ),
        "scada_operational": scada,
        "dead_pops": tuple(sorted(dead)),
        "connected_sites": len(best_group),
        "rounds": rounds,
    }
    return isolated, summary


def reference_grid_impact(
    grid: GridModel, failed: frozenset[str]
) -> tuple[float, float]:
    """(shed MW, served fraction) of one damage pattern under SCADA."""
    out_buses = frozenset(name for name in failed if name in grid.buses)
    survivor, _shed_at_damaged = damaged_grid(grid, out_buses)
    degenerate = (
        not survivor.lines
        or not survivor.generators
        or survivor.total_demand_mw == 0
    )
    if degenerate:
        served_mw = 0.0
    else:
        cascade = simulate_contingency(survivor, set(), True)
        served_mw = cascade.served_fraction * survivor.total_demand_mw
    demand = grid.total_demand_mw
    return (
        max(0.0, demand - served_mw),
        served_mw / demand if demand > 0 else 1.0,
    )
