"""The grid/WAN interdependency coupling as one batched kernel.

:class:`CouplingKernel` runs the compound cascade of
:class:`~repro.core.chain.InterdependencyStage` for ``P`` bus-damage
patterns at once (packed codes, see :mod:`repro.grid.kernel`):

1. the surviving grid islands under SCADA control
   (:meth:`~repro.grid.kernel.GridKernel.scada_on`);
2. PoPs whose bus failed or whose island serves less than
   ``pop_power_threshold`` go dark, and the largest group of control
   sites still reachable over the WAN is found by boolean reachability;
3. patterns left with fewer than ``required_connected_sites`` lose
   SCADA: their grid re-runs as the uncontrolled cascade
   (:meth:`~repro.grid.kernel.GridKernel.uncontrolled`), and step 2
   repeats on its islands.  SCADA only ever goes from up to down, so the
   fixed point is reached in at most two rounds.

Among equal-size site groups the first component in WAN node order
wins, the tie-break of ``networkx.connected_components``.  The scalar
loop over :func:`~repro.grid.contingency.simulate_contingency` that
this kernel replaces is kept as the test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.errors import NetworkModelError
from repro.grid.kernel import GridKernel, reachability
from repro.grid.model import GridModel
from repro.network.interdependency import InterdependencyParams
from repro.network.topology import WANTopology
from repro.obs.observer import current as current_observer

__all__ = ["CouplingKernel", "CouplingResult"]


@dataclass(frozen=True, eq=False)
class CouplingResult:
    """Per-pattern outcome arrays of one :meth:`CouplingKernel.run`."""

    #: ``(P, sites)`` control sites cut off from the largest site group,
    #: columns in :attr:`CouplingKernel.site_names` order.
    isolated: np.ndarray
    #: Demand lost at the failed buses themselves (MW).
    shed_at_damaged_mw: np.ndarray
    #: Served fraction of pre-storm demand at the fixed point.
    served_fraction: np.ndarray
    scada_operational: np.ndarray
    #: ``(P, pops)`` dark PoPs, columns in :attr:`CouplingKernel.pop_names` order.
    dead_pops: np.ndarray
    connected_sites: np.ndarray
    rounds: np.ndarray


def _bits(mask: np.ndarray) -> list[int]:
    weights = np.left_shift(1, np.arange(mask.shape[1], dtype=np.int64))
    return (mask.astype(np.int64) @ weights).tolist()


class CouplingKernel:
    """A grid, WAN, PoP power map and coupling parameters, compiled."""

    def __init__(
        self,
        grid: GridModel,
        wan: WANTopology,
        pop_to_bus: dict[str, str],
        params: InterdependencyParams,
    ) -> None:
        self.grid = GridKernel(grid)
        self.params = params
        nodes = list(wan.graph.nodes)
        node = {name: i for i, name in enumerate(nodes)}
        self.site_names = tuple(sorted(wan.site_nodes))
        self._site_bit = {name: k for k, name in enumerate(self.site_names)}
        self._site_nodes = np.array([node[s] for s in self.site_names], dtype=np.intp)
        self.pop_names = tuple(sorted(pop_to_bus))
        # A PoP powered from a bus outside the grid is never served; one
        # missing from the WAN has no node to remove.
        self._pop_bus = [self.grid.index.get(pop_to_bus[p]) for p in self.pop_names]
        self._pop_node = [node.get(p) for p in self.pop_names]
        adjacency = np.zeros((len(nodes), len(nodes)), dtype=bool)
        for a, b in wan.graph.edges:
            adjacency[node[a], node[b]] = adjacency[node[b], node[a]] = True
        self._adjacency = adjacency

    # ------------------------------------------------------------------
    def run(self, codes: np.ndarray) -> CouplingResult:
        """The coupled cascade's fixed point for each pattern code."""
        grid = self.grid
        failed = grid.unpack(codes)
        served_mw, service, degenerate = grid.scada_on(failed)
        dead, isolated, connected = self._wan(failed, service)
        scada = connected >= self.params.required_connected_sites
        rounds = np.ones(len(failed), dtype=np.int64)
        lost = np.flatnonzero(~scada)
        if lost.size:
            if self.params.max_rounds < 2:
                raise NetworkModelError("interdependency cascade did not converge")
            rounds[lost] = 2
            blind = lost[~degenerate[lost]]
            if blind.size:
                served, fraction, dc_rounds = grid.uncontrolled(failed[blind])
                served_mw[blind] = served
                service[blind] = fraction
                if dc_rounds:
                    current_observer().inc("interdependency.dc_rounds", dc_rounds)
            dead[lost], isolated[lost], connected[lost] = self._wan(
                failed[lost], service[lost]
            )
        total = grid.total_demand_mw
        return CouplingResult(
            isolated=isolated,
            shed_at_damaged_mw=grid.shed_at_damaged(failed),
            served_fraction=(
                served_mw / total if total > 0 else np.ones(len(failed))
            ),
            scada_operational=scada,
            dead_pops=dead,
            connected_sites=connected,
            rounds=rounds,
        )

    def _wan(
        self, failed: np.ndarray, service: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(dead PoPs, isolated sites, largest site group size) per pattern."""
        count = failed.shape[0]
        threshold = self.params.pop_power_threshold
        dead = np.ones((count, len(self.pop_names)), dtype=bool)
        alive = np.ones((count, self._adjacency.shape[0]), dtype=bool)
        for q, (bus, node) in enumerate(zip(self._pop_bus, self._pop_node)):
            if bus is not None:
                dead[:, q] = failed[:, bus] | (service[:, bus] < threshold)
            if node is not None:
                alive[:, node] &= ~dead[:, q]
        links = self._adjacency & alive[:, :, None] & alive[:, None, :]
        reach = reachability(links) & alive[:, :, None]
        # A component is named by its first node in WAN order -- the
        # order networkx.connected_components yields components in.
        label = reach.argmax(axis=2)
        site_label = label[:, self._site_nodes]
        site_alive = alive[:, self._site_nodes]
        sizes = np.zeros(alive.shape, dtype=np.int64)
        rows = np.arange(count)
        for s in range(len(self.site_names)):
            sizes[rows, site_label[:, s]] += site_alive[:, s]
        best = sizes.argmax(axis=1)
        connected = sizes[rows, best]
        isolated = ~((site_label == best[:, None]) & site_alive)
        return dead, isolated, connected

    # ------------------------------------------------------------------
    # Memo rows and their readers
    # ------------------------------------------------------------------
    def rows(self, codes: np.ndarray) -> list[tuple]:
        """One hashable memo row per code.

        ``(isolated site bits, shed, served fraction, scada, dead PoP
        bits, connected sites, rounds)``, bits in :attr:`site_names` /
        :attr:`pop_names` order.
        """
        result = self.run(codes)
        return list(
            zip(
                _bits(result.isolated),
                result.shed_at_damaged_mw.tolist(),
                result.served_fraction.tolist(),
                result.scada_operational.tolist(),
                _bits(result.dead_pops),
                result.connected_sites.tolist(),
                result.rounds.tolist(),
            )
        )

    def site_masks(self, isolated_bits: Iterable[int], site_names: Sequence[str]) -> np.ndarray:
        """``(P, len(site_names))`` isolated masks from memo-row bits.

        Sites the WAN does not carry are never isolated by the coupling.
        """
        bits = np.fromiter(isolated_bits, dtype=np.int64)
        masks = np.zeros((len(bits), len(site_names)), dtype=bool)
        for j, name in enumerate(site_names):
            k = self._site_bit.get(name)
            if k is not None:
                masks[:, j] = (bits >> k) & 1 == 1
        return masks

    def summary(self, code: int, row: tuple) -> tuple[frozenset[str], dict]:
        """(isolated site names, the stage's summary dict) of one memo row."""
        iso, shed, served, scada, dead, connected, rounds = row
        isolated = frozenset(
            name for k, name in enumerate(self.site_names) if iso >> k & 1
        )
        return isolated, {
            "out_buses": self.grid.names_of(code),
            "shed_at_damaged_mw": shed,
            "served_fraction": served,
            "scada_operational": scada,
            "dead_pops": tuple(
                name for k, name in enumerate(self.pop_names) if dead >> k & 1
            ),
            "connected_sites": connected,
            "rounds": rounds,
        }
