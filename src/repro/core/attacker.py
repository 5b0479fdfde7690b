"""Cyberattack models (paper Section V-B).

The paper models a *worst-case* attacker: it observes the post-disaster
system state and spends its budget (intrusions, isolations) to cause the
maximum possible damage.  Enumerating every combination of targets is
exact but inefficient; the paper gives a 3-rule greedy algorithm that is
guaranteed worst-case for the architectures considered:

1. If the attacker can compromise system safety, it does so.
2. Otherwise it isolates sites in priority order: primary control center
   first (if still functioning), then the backup, then data centers.
3. Remaining intrusions go to servers that would otherwise be functional.

:class:`WorstCaseAttacker` implements the greedy algorithm and
:class:`ExhaustiveAttacker` the brute-force enumeration; the test suite
and an ablation benchmark verify they always produce states of equal
severity.  :class:`ProbabilisticAttacker` explores the paper's
future-work question of attackers whose capabilities only succeed with
some probability.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.evaluator import evaluate, evaluate_batch
from repro.core.system_state import SiteStatus, SystemState
from repro.core.threat import CyberAttackBudget
from repro.errors import AnalysisError
from repro.scada.architectures import ArchitectureFamily, ArchitectureSpec


def _replay_rows(
    attacker,
    architecture: ArchitectureSpec,
    flooded: np.ndarray,
    isolated: np.ndarray,
    intrusions: np.ndarray,
    budget: CyberAttackBudget,
    site_names: Sequence[str] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Batch a deterministic attacker by replaying distinct rows.

    A deterministic ``attack`` is a pure function of ``(state, budget)``,
    so each distinct (flooded, isolated, intrusions) row is attacked once
    and the result scattered back to every realization sharing it.  The
    library's attackers never read site *names* and replay on
    placeholder names; pass the placed ``site_names`` for an attacker
    that might.
    """
    n_sites = flooded.shape[1]
    key = np.hstack(
        [
            flooded.astype(np.int64),
            isolated.astype(np.int64),
            intrusions.astype(np.int64),
        ]
    )
    patterns, inverse = np.unique(key, axis=0, return_inverse=True)
    inverse = np.asarray(inverse).reshape(-1)
    iso_out = np.zeros((len(patterns), n_sites), dtype=bool)
    intr_out = np.zeros((len(patterns), n_sites), dtype=np.int64)
    for p, row in enumerate(patterns):
        sites = tuple(
            SiteStatus(
                asset_name=f"site-{j}" if site_names is None else site_names[j],
                spec=spec,
                flooded=bool(row[j]),
                isolated=bool(row[n_sites + j]),
                intrusions=int(row[2 * n_sites + j]),
            )
            for j, spec in enumerate(architecture.sites)
        )
        attacked = attacker.attack(SystemState(architecture, sites), budget, None)
        for j, site in enumerate(attacked.sites):
            iso_out[p, j] = site.isolated
            intr_out[p, j] = site.intrusions
    return iso_out[inverse], intr_out[inverse]


def _serving_site_order(state: SystemState) -> list[int]:
    """Functioning site indices in attack-priority order.

    Primary first, then backups, then data centers; ties broken by slot
    position.  This is both the isolation order (rule 2) and the intrusion
    placement preference (rule 3: hit the site currently serving).
    """
    functioning = state.functioning_sites()
    return sorted(
        functioning,
        key=lambda i: (state.architecture.sites[i].role.attack_priority, i),
    )


class WorstCaseAttacker:
    """The paper's greedy worst-case attack algorithm.

    The guarantee (same damage severity as exhaustive enumeration) is
    verified by tests and the attacker ablation benchmark for the paper's
    architectures, including states that already carry intrusions.  For
    hand-built active multi-site architectures with *unequal* site sizes
    the isolation priority order may be suboptimal.
    """

    name = "worst-case"
    #: Pure function of the state: never consumes the rng, so chains
    #: whose attack stage uses it keep a deterministic prefix.
    deterministic = True

    def attack(
        self,
        state: SystemState,
        budget: CyberAttackBudget,
        rng: np.random.Generator | None = None,
    ) -> SystemState:
        del rng  # deterministic attacker
        if budget.is_empty:
            return state
        compromised = self._try_compromise_safety(state, budget)
        if compromised is not None:
            return compromised
        after_isolation = self._apply_isolations(state, budget.isolations)
        attacked = self._apply_intrusions(after_isolation, budget.intrusions)
        # Doing nothing is always within the attacker's power: never
        # return an outcome milder than the starting state (isolating a
        # site that already hosts the attacker's intrusions would
        # otherwise *reduce* severity on pre-compromised states).
        if evaluate(attacked).severity < evaluate(state).severity:
            return state
        return attacked

    # -- rule 1 ---------------------------------------------------------
    def _try_compromise_safety(
        self, state: SystemState, budget: CyberAttackBudget
    ) -> SystemState | None:
        """Break safety if the intrusion budget allows it, else ``None``.

        Accounts for intrusions already present in functioning sites: the
        attacker only needs to top the count up past ``f``.
        """
        arch = state.architecture
        target = arch.intrusions_f + 1
        order = _serving_site_order(state)
        if arch.family is ArchitectureFamily.ACTIVE_MULTISITE:
            # One global replication group: the functioning-site total
            # must exceed f.
            deficit = target - state.total_functioning_intrusions()
            if deficit <= 0:
                return state  # safety is already compromised
            if budget.intrusions < deficit:
                return None
            placed = 0
            result = state
            for idx in order:
                if placed >= deficit:
                    break
                site = state.sites[idx]
                count = min(deficit - placed, site.spec.replicas - site.intrusions)
                if count > 0:
                    result = result.with_intrusions(idx, count)
                    placed += count
            return result if placed >= deficit else None
        # Per-site groups: some functioning site must exceed f on its own.
        best: SystemState | None = None
        for idx in order:
            site = state.sites[idx]
            deficit = target - site.intrusions
            if deficit <= 0:
                return state  # safety is already compromised
            capacity = site.spec.replicas - site.intrusions
            if deficit <= budget.intrusions and deficit <= capacity:
                if best is None:
                    best = state.with_intrusions(idx, deficit)
        return best

    # -- rule 2 ---------------------------------------------------------
    def _apply_isolations(self, state: SystemState, isolations: int) -> SystemState:
        result = state
        for _ in range(isolations):
            order = _serving_site_order(result)
            if not order:
                break
            result = result.with_isolation(order[0])
        return result

    # -- rule 3 ---------------------------------------------------------
    def _apply_intrusions(self, state: SystemState, intrusions: int) -> SystemState:
        result = state
        remaining = intrusions
        for idx in _serving_site_order(result):
            if remaining == 0:
                break
            site = result.sites[idx]
            count = min(remaining, site.spec.replicas - site.intrusions)
            if count > 0:
                result = result.with_intrusions(idx, count)
                remaining -= count
        return result

    # -- the batched kernel ---------------------------------------------
    def attack_batch(
        self,
        architecture: ArchitectureSpec,
        flooded: np.ndarray,
        isolated: np.ndarray,
        intrusions: np.ndarray,
        budget: CyberAttackBudget,
        draws: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The greedy algorithm over a whole (realization x site) grid.

        Vectorized transcription of :meth:`attack`, bitwise-identical to
        applying it row by row (asserted by the batched-executor tests):
        rule 1 resolves rows where safety can be (or already is)
        compromised and those rows bypass the final severity guard,
        exactly as the scalar early returns do; rules 2-3 run on the
        rest in the same static (attack-priority, slot) order the scalar
        code follows -- the order never changes mid-attack because
        isolating or intruding a site cannot revive another.

        Returns the post-attack ``(isolated, intrusions)`` grids.
        ``draws`` is part of the unified ``attack_batch`` signature (the
        RNG-draw contract); a deterministic attacker ignores it.
        """
        del draws  # deterministic attacker
        if budget.is_empty:
            return isolated, intrusions
        n_rows, n_sites = flooded.shape
        order = sorted(
            range(n_sites),
            key=lambda i: (architecture.sites[i].role.attack_priority, i),
        )
        replicas = np.array(
            [site.replicas for site in architecture.sites], dtype=np.int64
        )
        functioning = ~(flooded | isolated)
        target = architecture.intrusions_f + 1
        out_iso = isolated.copy()
        out_intr = intrusions.copy()

        # Rule 1: rows it resolves (already compromised, or successfully
        # compromised) never reach rules 2-3 or the severity guard.
        if architecture.family is ArchitectureFamily.ACTIVE_MULTISITE:
            total = np.where(functioning, intrusions, 0).sum(axis=1)
            deficit = target - total
            already = deficit <= 0
            attempt = ~already & (deficit <= budget.intrusions)
            remaining = np.where(attempt, deficit, 0)
            placed = intrusions.copy()
            for s in order:
                capacity = np.where(
                    functioning[:, s], replicas[s] - intrusions[:, s], 0
                )
                take = np.minimum(remaining, capacity)
                placed[:, s] += take
                remaining -= take
            success = attempt & (remaining <= 0)
            out_intr[success] = placed[success]
            resolved = already | success
        else:
            # Per-site groups: any functioning site already past f wins
            # outright; otherwise the first functioning site (in order)
            # whose deficit fits the budget *and* its replica count.
            already = (np.where(functioning, intrusions, 0) >= target).any(axis=1)
            chosen = np.full(n_rows, -1, dtype=np.int64)
            for s in order:
                hit = (
                    ~already
                    & (chosen < 0)
                    & functioning[:, s]
                    & (target - intrusions[:, s] <= budget.intrusions)
                    & (target <= replicas[s])
                )
                chosen[hit] = s
            for s in order:
                rows = chosen == s
                out_intr[rows, s] = target
            resolved = already | (chosen >= 0)

        pending = ~resolved
        if pending.any():
            # Rule 2: isolate the first L functioning sites in order.
            iso23 = isolated.copy()
            intr23 = intrusions.copy()
            iso_budget = np.where(pending, budget.isolations, 0)
            for s in order:
                hit = functioning[:, s] & (iso_budget > 0)
                iso23[hit, s] = True
                iso_budget -= hit
            # Rule 3: distribute remaining intrusions greedily in order.
            still_functioning = ~(flooded | iso23)
            remaining = np.where(pending, budget.intrusions, 0)
            for s in order:
                capacity = np.where(
                    still_functioning[:, s], replicas[s] - intr23[:, s], 0
                )
                take = np.minimum(remaining, capacity)
                intr23[:, s] += take
                remaining -= take
            # Doing nothing is always within the attacker's power: never
            # return an outcome milder than the starting state.
            before = evaluate_batch(architecture, flooded, isolated, intrusions)
            after = evaluate_batch(architecture, flooded, iso23, intr23)
            keep = pending & (after >= before)
            out_iso[keep] = iso23[keep]
            out_intr[keep] = intr23[keep]
        return out_iso, out_intr


class ExhaustiveAttacker:
    """Brute force: evaluate every target combination, keep the worst.

    Exponential in sites and budget, but both are tiny here.  Used to
    validate that the greedy algorithm is genuinely worst-case.
    """

    name = "exhaustive"
    deterministic = True

    def attack(
        self,
        state: SystemState,
        budget: CyberAttackBudget,
        rng: np.random.Generator | None = None,
    ) -> SystemState:
        del rng  # deterministic attacker
        best_state = state
        best_severity = evaluate(state).severity
        n = len(state.sites)
        site_indices = range(n)

        isolation_choices = []
        for k in range(min(budget.isolations, n) + 1):
            isolation_choices.extend(itertools.combinations(site_indices, k))

        for isolated in isolation_choices:
            base = state
            for idx in isolated:
                base = base.with_isolation(idx)
            for assignment in self._intrusion_assignments(base, budget.intrusions):
                candidate = base
                for idx, count in enumerate(assignment):
                    if count:
                        candidate = candidate.with_intrusions(idx, count)
                severity = evaluate(candidate).severity
                if severity > best_severity:
                    best_severity = severity
                    best_state = candidate
        return best_state

    def attack_batch(
        self,
        architecture: ArchitectureSpec,
        flooded: np.ndarray,
        isolated: np.ndarray,
        intrusions: np.ndarray,
        budget: CyberAttackBudget,
        draws: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exhaustive enumeration once per distinct pre-attack pattern.

        Native batched kernel under the unified ``attack_batch``
        signature.  ``draws`` is ignored (deterministic attacker).
        """
        del draws  # deterministic attacker
        return _replay_rows(self, architecture, flooded, isolated, intrusions, budget)

    @staticmethod
    def _intrusion_assignments(state: SystemState, total: int):
        """All per-site *additional* intrusion distributions within budget.

        Each site can absorb at most its remaining uncompromised replicas.
        """
        caps = [site.spec.replicas - site.intrusions for site in state.sites]
        ranges = [range(min(cap, total) + 1) for cap in caps]
        for combo in itertools.product(*ranges):
            if sum(combo) <= total:
                yield combo


@dataclass(frozen=True)
class ProbabilisticAttacker:
    """Future-work extension: attack capabilities that may fail.

    Each budgeted intrusion succeeds with probability ``p_intrusion`` and
    each isolation with ``p_isolation``; the realized capabilities are then
    spent by the worst-case algorithm.  Deterministic given the ``rng``
    stream, so ensemble analyses remain reproducible.
    """

    p_intrusion: float = 1.0
    p_isolation: float = 1.0
    name: str = "probabilistic"

    #: Consumes the rng (capability sampling): stages wrapping it must
    #: not be treated as a deterministic chain prefix.
    deterministic = False

    def __post_init__(self) -> None:
        for p in (self.p_intrusion, self.p_isolation):
            if not 0.0 <= p <= 1.0:
                raise AnalysisError(f"probability {p} outside [0, 1]")

    def sample_budget(
        self, budget: CyberAttackBudget, rng: np.random.Generator
    ) -> CyberAttackBudget:
        intrusions = int(np.sum(rng.random(budget.intrusions) < self.p_intrusion))
        isolations = int(np.sum(rng.random(budget.isolations) < self.p_isolation))
        return CyberAttackBudget(intrusions=intrusions, isolations=isolations)

    def attack(
        self,
        state: SystemState,
        budget: CyberAttackBudget,
        rng: np.random.Generator,
    ) -> SystemState:
        realized = self.sample_budget(budget, rng)
        return WorstCaseAttacker().attack(state, realized)

    # -- the RNG-draw contract ------------------------------------------
    def batch_draws(self, budget: CyberAttackBudget) -> int:
        """Uniform draws one scalar :meth:`attack` call consumes.

        :meth:`sample_budget` draws ``rng.random(budget.intrusions)``
        then ``rng.random(budget.isolations)`` -- a fixed count per
        realization, which is exactly what lets the batched executor
        replay the stream with one matrix draw.
        """
        return budget.intrusions + budget.isolations

    def attack_batch(
        self,
        architecture: ArchitectureSpec,
        flooded: np.ndarray,
        isolated: np.ndarray,
        intrusions: np.ndarray,
        budget: CyberAttackBudget,
        draws: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Capability sampling + the worst-case kernel, fully batched.

        ``draws`` must be the ``(n_realizations, batch_draws(budget))``
        uniform block whose row ``r`` replays realization ``r``'s scalar
        stream: the first ``budget.intrusions`` columns are the
        intrusion capability draws, the rest the isolation draws --
        identical comparisons to :meth:`sample_budget`.  Rows are then
        grouped by realized budget (at most ``(intrusions + 1) *
        (isolations + 1)`` groups) and each group runs the worst-case
        attacker's native batched kernel, which is bitwise-faithful to
        the scalar greedy algorithm per row.
        """
        if self.batch_draws(budget) == 0:
            # An empty budget samples nothing and attacks nothing; the
            # scalar path consumes zero draws too (rng.random(0) twice).
            return isolated, intrusions
        if draws is None:
            raise AnalysisError(
                "probabilistic attacker needs the executor's draw block "
                "(the RNG-draw contract) to run batched"
            )
        expected = (flooded.shape[0], self.batch_draws(budget))
        if draws.shape != expected:
            raise AnalysisError(
                f"draw block shape {draws.shape} does not match "
                f"expected {expected}"
            )
        realized_intr = (draws[:, : budget.intrusions] < self.p_intrusion).sum(axis=1)
        realized_iso = (draws[:, budget.intrusions :] < self.p_isolation).sum(axis=1)
        out_iso = isolated.copy()
        out_intr = intrusions.copy()
        worst = WorstCaseAttacker()
        codes = realized_intr * (budget.isolations + 1) + realized_iso
        for code in np.unique(codes):
            realized = CyberAttackBudget(
                intrusions=int(code) // (budget.isolations + 1),
                isolations=int(code) % (budget.isolations + 1),
            )
            if realized.is_empty:
                continue  # WorstCaseAttacker.attack returns state unchanged
            rows = codes == code
            iso_g, intr_g = worst.attack_batch(
                architecture,
                flooded[rows],
                isolated[rows],
                intrusions[rows],
                realized,
            )
            out_iso[rows] = iso_g
            out_intr[rows] = intr_g
        return out_iso, out_intr
