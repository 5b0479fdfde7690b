"""Storm damage to the grid itself, from the same hurricane data.

The paper tracks power plants and substations as inundation targets but
analyzes only the SCADA system.  This module closes the loop: the *same*
hurricane realizations that flood control centers also flood grid assets;
a flooded bus (plant or substation switchyard) drops out of service, its
load is shed, its generation is lost, and the surviving grid re-islands
-- with or without SCADA control of the aftermath.

This is the full compound picture: one realization yields both the SCADA
operational state (can the operators see and steer?) and the grid state
(how much of the island is dark regardless?).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import GridModelError
from repro.grid.contingency import simulate_contingency
from repro.grid.model import GridModel
from repro.hazards.base import HazardEnsemble, HazardRealization
from repro.hazards.fragility import FragilityModel, ThresholdFragility


def damaged_grid(grid: GridModel, out_buses: frozenset[str]) -> tuple[GridModel, float]:
    """The surviving grid after bus outages, plus the demand shed at them.

    Unknown bus names in ``out_buses`` are ignored (the hazard catalog
    tracks assets beyond the grid model, e.g. control centers).
    """
    lost = {name for name in out_buses if name in grid.buses}
    if not lost:
        return grid, 0.0
    survivor = GridModel()
    for name, bus in grid.buses.items():
        if name not in lost:
            survivor.add_bus(bus)
    for line in grid.lines:
        if line.a not in lost and line.b not in lost:
            survivor.add_line(line)
    for gen in grid.generators.values():
        if gen.bus not in lost:
            survivor.add_generator(gen)
    shed = sum(grid.buses[name].demand_mw for name in sorted(lost))
    return survivor, shed


@dataclass(frozen=True)
class StormGridImpact:
    """Grid outcome of one hurricane realization."""

    realization_index: int
    out_buses: tuple[str, ...]
    shed_at_damaged_mw: float
    served_fraction: float
    cascade_tripped_lines: int


def storm_grid_impact(
    grid: GridModel,
    realization: HazardRealization,
    fragility: FragilityModel | None = None,
    scada_operational: bool = True,
) -> StormGridImpact:
    """Load served immediately after one realization's storm damage."""
    model = fragility or ThresholdFragility()
    failed = realization.failed_assets(model)
    survivor, shed = damaged_grid(grid, frozenset(failed))
    total = grid.total_demand_mw
    if total <= 0:
        raise GridModelError("grid has no demand")
    out_buses = tuple(sorted(name for name in failed if name in grid.buses))
    if not survivor.lines or not survivor.generators or survivor.total_demand_mw == 0:
        return StormGridImpact(
            realization_index=realization.index,
            out_buses=out_buses,
            shed_at_damaged_mw=shed,
            served_fraction=0.0,
            cascade_tripped_lines=0,
        )
    cascade = simulate_contingency(survivor, set(), scada_operational)
    served_mw = cascade.served_fraction * survivor.total_demand_mw
    return StormGridImpact(
        realization_index=realization.index,
        out_buses=out_buses,
        shed_at_damaged_mw=shed,
        served_fraction=served_mw / total,
        cascade_tripped_lines=len(cascade.tripped_lines),
    )


@dataclass(frozen=True)
class EnsembleGridImpact:
    """Grid impact statistics over a hurricane ensemble."""

    mean_served_fraction: float
    worst_served_fraction: float
    damage_probability: float  # fraction of realizations with any bus out

    def summary(self) -> str:
        return (
            f"mean served {self.mean_served_fraction:.1%}, "
            f"worst {self.worst_served_fraction:.1%}, "
            f"P(grid damage) {self.damage_probability:.1%}"
        )


def ensemble_grid_impact(
    grid: GridModel,
    ensemble: HazardEnsemble,
    fragility: FragilityModel | None = None,
    scada_operational: bool = True,
) -> EnsembleGridImpact:
    """Aggregate storm grid impact over an ensemble."""
    fractions = []
    damaged = 0
    for realization in ensemble:
        impact = storm_grid_impact(grid, realization, fragility, scada_operational)
        fractions.append(impact.served_fraction)
        if impact.out_buses:
            damaged += 1
    if not fractions:
        raise GridModelError("ensemble is empty")
    return EnsembleGridImpact(
        mean_served_fraction=sum(fractions) / len(fractions),
        worst_served_fraction=min(fractions),
        damage_probability=damaged / len(fractions),
    )


def damage_pattern_groups(
    failed: np.ndarray,
    asset_names: Sequence[str],
    bus_names: Sequence[str],
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct grid-damage patterns of a (realization x asset) failure grid.

    Each row's failed buses pack into an ``int64`` code, bit ``k`` set
    when ``bus_names[k]`` failed (the :mod:`repro.grid.kernel` pattern
    code when ``bus_names`` is a kernel's ``bus_names``).  Returns
    ``(codes, inverse)``: the sorted distinct codes and, per
    realization, the index of its code.  Only columns naming grid buses
    enter the code, so control-center-only flooding collapses into the
    no-damage pattern 0 -- which is why the grid kernels run once per
    *distinct* pattern instead of once per realization.
    """
    column = {name: i for i, name in enumerate(asset_names)}
    bits = [k for k, name in enumerate(bus_names) if name in column]
    n_rows = int(failed.shape[0])
    if not bits:
        return np.zeros(1, dtype=np.int64), np.zeros(n_rows, dtype=np.intp)
    columns = [column[bus_names[k]] for k in bits]
    weights = np.left_shift(1, np.array(bits, dtype=np.int64))
    codes = np.asarray(failed, dtype=bool)[:, columns] @ weights
    unique, inverse = np.unique(codes, return_inverse=True)
    return unique, np.asarray(inverse).reshape(-1)
