"""The grid contingency as one numpy kernel over packed damage patterns.

A storm damage pattern is the set of failed grid buses, packed into an
``int64`` bitmask (bit ``k`` = the ``k``-th bus in sorted-name order).
:class:`GridKernel` takes ``P`` such codes at once and returns what
:func:`~repro.grid.contingency.simulate_contingency` returns for each
pattern's surviving grid (:func:`~repro.grid.storm_impact.damaged_grid`):

* :meth:`GridKernel.scada_on` -- the controlled pass: every island serves
  ``min(demand, capacity)``, with the per-bus served fraction of its
  island (the coupling's "bus service");
* :meth:`GridKernel.uncontrolled` -- the blind-dispatch cascade: stacked
  DC power-flow solves trip overloaded lines round by round until no
  pattern trips a line.

Islands come from boolean reachability over stacked ``(P x n x n)``
adjacencies.  A pattern's result never depends on which other patterns
share its batch: every float that feeds a threshold is computed
elementwise in the order :mod:`repro.grid.contingency` and
:mod:`repro.grid.powerflow` compute it (line order for the susceptance
matrix, generator order for capacities and injections, sorted bus order
for the reduced system), and each island's reduced B-matrix is stacked
only with islands of equal size, so every solve is the same LAPACK
``gesv`` call the scalar code makes.  The two sums the scalar code runs
in set-iteration order, which varies with ``PYTHONHASHSEED``, are taken
in sorted bus order: an island's demand (exact whenever demands are
whole megawatts, as on Oahu) and the scaled demand proportional
dispatch balances (the scalar result itself moves in the last bit from
one process to the next).

:func:`lookup_patterns` is the study-scoped memo in front of the
kernels: per-pattern result rows keyed by (kernel, code) in a dict the
analysis owns, counted as ``pipeline.coupling_cache.hit``/``.miss``.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.errors import GridModelError
from repro.grid.model import GridModel
from repro.obs.observer import current as current_observer

__all__ = ["GridKernel", "reachability", "lookup_patterns", "MAX_BUSES", "SUBSTRATE_LOCK"]

#: Buses a pattern code can carry (the bits of an ``int64``).
MAX_BUSES = 63

#: ``simulate_contingency``'s defaults, the values every caller uses.
OVERLOAD_TOLERANCE = 1.05
MAX_CASCADE_ROUNDS = 25

#: Patterns per kernel call: bounds the ``(P, n, n)`` temporaries.
PATTERN_BLOCK = 256

#: Guards the one-time kernel compilation of shared stage instances (the
#: registered chains serve concurrent studies).
SUBSTRATE_LOCK = threading.Lock()


def reachability(adjacency: np.ndarray) -> np.ndarray:
    """Reflexive transitive closure of stacked ``(P, n, n)`` adjacencies."""
    n = adjacency.shape[-1]
    reach = adjacency | np.eye(n, dtype=bool)
    while True:
        weights = reach.astype(np.float32)
        grown = np.matmul(weights, weights) > 0
        if np.array_equal(grown, reach):
            return reach
        reach = grown


def lookup_patterns(
    memo: dict,
    kernel: object,
    codes: np.ndarray,
    solve: Callable[[np.ndarray], Sequence[tuple]],
) -> list[tuple]:
    """Result rows for distinct ``codes``, solving only the memo misses.

    ``memo`` is the study-owned dict (the analysis ``matrix_cache``);
    ``kernel`` is the token naming the substrate the rows belong to.
    ``solve`` maps an array of missing codes to one row per code; it
    runs on blocks of at most :data:`PATTERN_BLOCK` codes (a kernel's
    rows do not depend on which codes share its call).
    """
    table = memo.get(kernel)
    if table is None:
        table = memo[kernel] = {}
    keys = codes.tolist()
    rows = [table.get(key) for key in keys]
    missing = [i for i, row in enumerate(rows) if row is None]
    obs = current_observer()
    if len(keys) > len(missing):
        obs.inc("pipeline.coupling_cache.hit", len(keys) - len(missing))
    if missing:
        obs.inc("pipeline.coupling_cache.miss", len(missing))
        codes = np.array([keys[i] for i in missing], dtype=np.int64)
        fresh: list[tuple] = []
        for start in range(0, len(codes), PATTERN_BLOCK):
            fresh += solve(codes[start : start + PATTERN_BLOCK])
        for i, row in zip(missing, fresh):
            rows[i] = table[keys[i]] = row
    return rows


class _Islands:
    """Per-bus island attributes of a stack of surviving grids."""

    __slots__ = ("reach", "demand", "capacity", "served", "size", "fraction", "served_mw")

    def __init__(self, kernel: "GridKernel", alive: np.ndarray, lines: np.ndarray):
        n = kernel.n_buses
        adjacency = (lines.astype(np.float32) @ kernel.incidence).reshape(-1, n, n) > 0
        reach = reachability(adjacency)
        reach &= alive[:, :, None]
        demand = np.zeros(alive.shape)
        for j in range(n):
            demand += reach[:, :, j] * kernel.demand[j]
        capacity = np.zeros(alive.shape)
        for bus, cap in zip(kernel.gen_bus, kernel.gen_cap):
            capacity += reach[:, :, bus] * cap
        served = np.minimum(demand, capacity)
        fraction = np.ones(alive.shape)
        np.divide(served, demand, out=fraction, where=demand > 0)
        fraction[~alive] = 0.0
        # One representative per island (its first bus) carries the
        # island's served megawatts into the grid total.
        first = (reach.argmax(axis=2) == np.arange(n)) & alive
        total = np.zeros(alive.shape[0])
        for i in range(n):
            total += served[:, i] * first[:, i]
        self.reach = reach
        self.demand = demand
        self.capacity = capacity
        self.served = served
        self.size = reach.sum(axis=2)
        self.fraction = fraction
        self.served_mw = total


class GridKernel:
    """A :class:`GridModel` compiled for batched contingency passes."""

    def __init__(self, grid: GridModel) -> None:
        names = sorted(grid.buses)
        if len(names) > MAX_BUSES:
            raise GridModelError(
                f"the batched grid kernel packs at most {MAX_BUSES} buses "
                f"per pattern code, got {len(names)}"
            )
        lines = grid.lines
        if len({line.key for line in lines}) < len(lines):
            # The scalar flow dict keeps one flow per (a, b) key, so
            # parallel lines under one key have no faithful batched form.
            raise GridModelError("the batched grid kernel needs distinct line keys")
        index = {name: k for k, name in enumerate(names)}
        n = len(names)
        self.grid = grid
        self.bus_names = tuple(names)
        self.index = index
        self.n_buses = n
        self.demand = np.array([grid.buses[name].demand_mw for name in names])
        #: Sorted indices in the grid's own bus order, the order the
        #: scalar code sums survivor and shed demand in.
        self.grid_order = tuple(index[name] for name in grid.buses)
        self.total_demand_mw = grid.total_demand_mw
        self.line_a = np.array([index[line.a] for line in lines], dtype=np.intp)
        self.line_b = np.array([index[line.b] for line in lines], dtype=np.intp)
        self.line_x = np.array([line.reactance_pu for line in lines])
        self.line_susceptance = tuple(1.0 / line.reactance_pu for line in lines)
        self.line_limit = np.array(
            [OVERLOAD_TOLERANCE * line.capacity_mw for line in lines]
        )
        incidence = np.zeros((len(lines), n, n), dtype=np.float32)
        l_idx = np.arange(len(lines))
        incidence[l_idx, self.line_a, self.line_b] = 1.0
        incidence[l_idx, self.line_b, self.line_a] = 1.0
        self.incidence = incidence.reshape(len(lines), n * n)
        gens = list(grid.generators.values())
        self.gen_bus = tuple(index[gen.bus] for gen in gens)
        self.gen_cap = tuple(gen.capacity_mw for gen in gens)
        #: Generator positions by name: the slack is the first one's bus.
        self.slack_order = tuple(
            sorted(range(len(gens)), key=lambda g: gens[g].name)
        )

    # ------------------------------------------------------------------
    # Pattern codes
    # ------------------------------------------------------------------
    def code_of(self, failed: Iterable[str]) -> int:
        """The pattern code of a failed-asset set (non-bus names ignored)."""
        index = self.index
        return sum(1 << index[name] for name in failed if name in index)

    def names_of(self, code: int) -> tuple[str, ...]:
        """The sorted failed bus names a pattern code packs."""
        return tuple(n for k, n in enumerate(self.bus_names) if code >> k & 1)

    def unpack(self, codes: np.ndarray) -> np.ndarray:
        """``(P, n)`` failed-bus masks of ``P`` pattern codes."""
        shifts = np.arange(self.n_buses, dtype=np.int64)
        return ((np.asarray(codes, dtype=np.int64)[:, None] >> shifts) & 1) == 1

    # ------------------------------------------------------------------
    # Passes
    # ------------------------------------------------------------------
    def _survivor(self, failed: np.ndarray) -> tuple[np.ndarray, ...]:
        """(alive buses, in-service lines, survivor demand, degenerate).

        A degenerate survivor -- no line, no generator or no demand --
        serves nothing and leaves every bus unserved.
        """
        alive = ~failed
        lines = alive[:, self.line_a] & alive[:, self.line_b]
        demand = np.zeros(failed.shape[0])
        for k in self.grid_order:
            demand += self.demand[k] * alive[:, k]
        degenerate = (
            ~lines.any(axis=1)
            | ~alive[:, list(self.gen_bus)].any(axis=1)
            | (demand == 0)
        )
        return alive, lines, demand, degenerate

    def _served_mw(self, islands: _Islands, survivor_demand: np.ndarray) -> np.ndarray:
        # simulate_contingency's served fraction times the survivor's
        # demand, exactly as the scalar callers recover megawatts.
        safe = np.where(survivor_demand > 0, survivor_demand, 1.0)
        return islands.served_mw / safe * survivor_demand

    def scada_on(self, failed: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Served MW, per-bus island service and degeneracy under SCADA.

        With SCADA redispatch every island serves ``min(demand,
        capacity)``; degenerate survivors serve nothing.
        """
        alive, lines, survivor_demand, degenerate = self._survivor(failed)
        islands = _Islands(self, alive, lines)
        served = self._served_mw(islands, survivor_demand)
        served[degenerate] = 0.0
        islands.fraction[degenerate] = 0.0
        return served, islands.fraction, degenerate

    def uncontrolled(self, failed: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
        """The SCADA-less cascade of non-degenerate patterns to its fixed point.

        Returns served MW, per-bus island service and the number of
        stacked DC-flow rounds run.
        """
        alive, base_lines, survivor_demand, _degenerate = self._survivor(failed)
        count = failed.shape[0]
        tripped = np.zeros(base_lines.shape, dtype=bool)
        served = np.zeros(count)
        fraction = np.zeros(failed.shape)
        active = np.arange(count)
        rounds = dc_rounds = 0
        while active.size:
            rounds += 1
            if rounds > MAX_CASCADE_ROUNDS:
                raise GridModelError("cascade did not converge; check grid data")
            lines = base_lines[active] & ~tripped[active]
            islands = _Islands(self, alive[active], lines)
            trips, solved = self._overloads(alive[active], lines, islands)
            dc_rounds += solved
            done = ~trips.any(axis=1)
            finished = active[done]
            served[finished] = self._served_mw(islands, survivor_demand[active])[done]
            fraction[finished] = islands.fraction[done]
            tripped[active[~done]] |= trips[~done]
            active = active[~done]
        return served, fraction, dc_rounds

    def _overloads(
        self, alive: np.ndarray, lines: np.ndarray, islands: _Islands
    ) -> tuple[np.ndarray, bool]:
        """Lines blind proportional dispatch overloads, per pattern.

        Mirrors one round of ``simulate_contingency`` without SCADA:
        each island serving load with two or more buses gets its demand
        scaled to what it serves, proportional dispatch, and a DC flow
        with the first-named generator's bus as slack.
        """
        n = self.n_buses
        solvable = alive & (islands.served > 0) & (islands.size >= 2)
        if not solvable.any():
            return np.zeros(lines.shape, dtype=bool), False
        reach = islands.reach
        scale = np.zeros(alive.shape)
        np.divide(islands.served, islands.demand, out=scale, where=solvable)
        bus_demand = self.demand * scale
        dispatch_demand = np.zeros(alive.shape)
        for j in range(n):
            dispatch_demand += reach[:, :, j] * bus_demand[:, j][:, None]
        gen_scale = np.zeros(alive.shape)
        np.divide(dispatch_demand, islands.capacity, out=gen_scale, where=solvable)
        injections = 0.0 - bus_demand
        for bus, cap in zip(self.gen_bus, self.gen_cap):
            injections[:, bus] += cap * gen_scale[:, bus]
        susceptance = np.zeros((alive.shape[0], n, n))
        for l, b in enumerate(self.line_susceptance):
            i, j = self.line_a[l], self.line_b[l]
            w = b * lines[:, l]
            susceptance[:, i, i] += w
            susceptance[:, j, j] += w
            susceptance[:, i, j] -= w
            susceptance[:, j, i] -= w
        slack = np.full(alive.shape, -1, dtype=np.intp)
        for g in reversed(self.slack_order):
            bus = self.gen_bus[g]
            slack = np.where(reach[:, :, bus], bus, slack)
        first = (reach.argmax(axis=2) == np.arange(n)) & solvable
        pp, rr = np.nonzero(first)
        members = reach[pp, rr] & (np.arange(n) != slack[pp, rr][:, None])
        sizes = members.sum(axis=1)
        theta = np.zeros(alive.shape)
        for k in np.unique(sizes):
            pick = sizes == k
            p_k = pp[pick]
            idx = np.nonzero(members[pick])[1].reshape(-1, k)
            reduced = susceptance[p_k[:, None, None], idx[:, :, None], idx[:, None, :]]
            rhs = injections[p_k[:, None], idx]
            try:
                solution = np.linalg.solve(reduced, rhs[..., None])[..., 0]
            except np.linalg.LinAlgError:
                raise GridModelError(
                    "singular susceptance matrix: the in-service grid is split; "
                    "solve each island separately"
                ) from None
            theta[p_k[:, None], idx] = solution
        flows = (theta[:, self.line_a] - theta[:, self.line_b]) / self.line_x
        checked = lines & solvable[:, self.line_a]
        return checked & (np.abs(flows) > self.line_limit), True

    # ------------------------------------------------------------------
    # Tail-risk impact
    # ------------------------------------------------------------------
    def impact_rows(self, codes: np.ndarray) -> list[tuple[float, float]]:
        """``(shed_mw, served_fraction)`` per code under SCADA control."""
        served, _fraction, _degenerate = self.scada_on(self.unpack(codes))
        demand = self.total_demand_mw
        shed = np.maximum(0.0, demand - served)
        fraction = served / demand if demand > 0 else np.ones_like(served)
        return list(zip(shed.tolist(), fraction.tolist()))

    def shed_at_damaged(self, failed: np.ndarray) -> np.ndarray:
        """Demand lost at the failed buses themselves, per pattern."""
        shed = np.zeros(failed.shape[0])
        for k in self.grid_order:
            shed += self.demand[k] * failed[:, k]
        return shed
