"""The analysis and evaluation pipeline (paper Fig. 5).

Workflow per realization::

    geospatial SCADA topology + hurricane realization
        -> post-natural-disaster system state       (fragility model)
        -> post-attack system state                 (worst-case attacker)
        -> operational state                        (Table I evaluator)

and per (architecture, placement, scenario): the operational profile over
the whole ensemble.

The workflow itself is owned by :mod:`repro.core.chain`:
:class:`CompoundThreatAnalysis` resolves a
:class:`~repro.core.chain.ThreatChain` (default ``"paper"``, the exact
pipeline above) and runs each cell through its executor
(:meth:`~repro.core.chain.ThreatChain.run_batch`) or, when the chain
cannot batch, its scalar adapter.  The class keeps the
ensemble/fragility/attacker wiring, the memoized depth and failure
grids, and the matrix/profile aggregation.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.attacker import WorstCaseAttacker
from repro.core.batch import BatchContext, ChainBatchPlan
from repro.core.chain import (
    Attacker,
    ChainContext,
    RealizationOutcome,
    ThreatChain,
    resolve_chain,
)
from repro.core.outcomes import OperationalProfile, ScenarioMatrix
from repro.core.system_state import SystemState, initial_state
from repro.core.threat import ThreatScenario
from repro.errors import AnalysisError
from repro.hazards.base import HazardEnsemble, HazardRealization
from repro.hazards.columnar import depth_grid
from repro.hazards.fragility import FragilityModel, ThresholdFragility
from repro.obs.observer import current as current_observer
from repro.scada.architectures import ArchitectureSpec
from repro.scada.placement import Placement

__all__ = [
    "Attacker",
    "RealizationOutcome",
    "CompoundThreatAnalysis",
]


class CompoundThreatAnalysis:
    """The paper's data-centric analysis framework.

    Parameters
    ----------
    ensemble:
        Hazard realizations (the natural-disaster input data); any
        hazard type satisfying :class:`~repro.hazards.base.HazardEnsemble`
        plugs in (hurricane surge, earthquake, ...).
    fragility:
        How inundation depth maps to asset failure; defaults to the
        paper's 0.5 m threshold rule.
    attacker:
        The cyberattack model; defaults to the worst-case attacker.
    seed:
        Seeds the rng handed to stochastic attackers (ignored by the
        deterministic ones), keeping runs reproducible.
    matrix_cache:
        An externally owned study memo to use instead of a private one:
        fragility grids (model token -> failure/probability grid) and
        per-damage-pattern grid results (stage substrate -> pattern code
        -> row).  Every entry is a pure function of the ensemble's depth
        grid or of a bus-damage pattern -- sampled outcomes are never
        stored -- so it is sound for stochastic fragility too, and the
        sweep engine shares one per ensemble group.
    chain:
        The threat chain to run each realization through: a registered
        name, a :class:`~repro.core.chain.ThreatChain`, or ``None`` for
        the paper's exact three-stage pipeline.
    batch:
        Executor selection.  ``None`` (the default) auto-selects: the
        fused batched executor when the ensemble exposes a depth grid
        and every chain stage supports batching (stochastic fragility
        models and attackers included, via the RNG-draw contract --
        see :meth:`~repro.core.chain.ThreatChain.batch_plan`), the
        whole-cell scalar adapter otherwise (counter ``batch.fallback``
        records why).  ``False`` forces the adapter; ``True`` requires
        the batched path and raises :class:`~repro.errors.AnalysisError`
        when it is unavailable.  Both paths are bitwise identical for
        the built-in chains.
    weights:
        Optional per-realization importance weights (one per ensemble
        member, in index order).  When given, every profile is a
        :class:`~repro.sampling.weighted.WeightedProfile` aggregating
        the reweighted outcome tallies; ``None`` (the default) keeps
        the historical unweighted :class:`OperationalProfile` path
        byte for byte.
    """

    def __init__(
        self,
        ensemble: HazardEnsemble,
        fragility: FragilityModel | None = None,
        attacker: Attacker | None = None,
        seed: int = 0,
        chain: ThreatChain | str | None = None,
        batch: bool | None = None,
        weights: np.ndarray | None = None,
        matrix_cache: dict | None = None,
    ) -> None:
        if len(ensemble) == 0:
            raise AnalysisError("ensemble must contain realizations")
        if weights is not None:
            weights = np.asarray(weights, dtype=float)
            if weights.shape != (len(ensemble),):
                raise AnalysisError(
                    f"weights shape {weights.shape} does not match "
                    f"ensemble size {len(ensemble)}"
                )
        self.weights = weights
        self.ensemble = ensemble
        self.fragility = fragility or ThresholdFragility()
        self.attacker = attacker or WorstCaseAttacker()
        self.chain = resolve_chain(chain)
        self.batch = batch
        self._seed = seed
        # Memos shared across every matrix cell: the ensemble's depth
        # grid is resolved once; failure matrices / probability grids are
        # cached per fragility model and grid results per damage pattern.
        # Every entry is a pure function of (depths, model) or of a
        # pattern -- the stochastic path samples fresh draws *against*
        # the cached probability grid, never caching outcomes -- so the
        # sweep engine may pass one externally owned ``matrix_cache`` per
        # shared ensemble.  It lives as long as the analysis: stages keep
        # no per-study state of their own.
        self._grid = depth_grid(ensemble)
        self._memo: dict = {} if matrix_cache is None else matrix_cache

    def _batch_context(
        self,
        architecture: ArchitectureSpec,
        placement: Placement,
        scenario: ThreatScenario,
    ) -> BatchContext | None:
        """A batch context for one cell, or ``None`` when unavailable."""
        grid = self._grid
        if grid is None:
            return None
        names, depths = grid
        return BatchContext(
            architecture,
            placement,
            scenario,
            fragility=self.fragility,
            attacker=self.attacker,
            asset_names=names,
            depths=depths,
            matrix_cache=self._memo,
        )

    def _context(
        self,
        architecture: ArchitectureSpec,
        placement: Placement,
        scenario: ThreatScenario,
    ) -> ChainContext:
        """One chain context, reused across the whole ensemble loop."""
        return ChainContext(
            architecture,
            placement,
            scenario,
            fragility=self.fragility,
            attacker=self.attacker,
            memo=self._memo,
        )

    # ------------------------------------------------------------------
    # Per-realization steps (Fig. 5 boxes)
    # ------------------------------------------------------------------
    def post_disaster_state(
        self,
        architecture: ArchitectureSpec,
        placement: Placement,
        realization: HazardRealization,
        rng: np.random.Generator | None = None,
    ) -> SystemState:
        """Apply the natural-disaster impact to a deployed architecture."""
        failed = realization.failed_assets(self.fragility, rng)
        return initial_state(architecture, placement, failed)

    def outcome(
        self,
        architecture: ArchitectureSpec,
        placement: Placement,
        realization: HazardRealization,
        scenario: ThreatScenario,
        rng: np.random.Generator | None = None,
    ) -> RealizationOutcome:
        """Run one realization through the configured threat chain."""
        ctx = self._context(architecture, placement, scenario)
        ctx.realization = realization
        return self.chain.run(ctx, rng)

    # ------------------------------------------------------------------
    # Ensemble-level analysis
    # ------------------------------------------------------------------
    def run(
        self,
        architecture: ArchitectureSpec,
        placement: Placement,
        scenario: ThreatScenario,
    ) -> OperationalProfile:
        """Outcome probabilities for one configuration under one scenario.

        One body for both paths: the cell's severity codes come from the
        batched executor when the chain batches, from the scalar adapter
        otherwise, each seeded with a fresh ``default_rng(seed)`` per
        cell (a deterministic batched plan draws nothing and seeds
        nothing).  With an observer enabled the executor's per-stage
        timer becomes one aggregate ``pipeline.stage.<name>`` child span
        per stage, rather than thousands of span objects.
        """
        chain = self.chain
        bctx = self._batch_context(architecture, placement, scenario)
        plan = self._plan(bctx)
        obs = current_observer()
        timer: dict[str, float] | None = {} if obs.enabled else None
        with obs.span(
            "analysis.run",
            scenario=scenario.name,
            architecture=architecture.name,
            chain=chain.name,
            executor="batched" if plan is not None else "scalar",
        ):
            if plan is not None:
                assert bctx is not None  # a plan implies a depth grid
                rng = (
                    np.random.default_rng(self._seed)
                    if plan.total_draws > 0
                    else None
                )
                codes = chain.run_batch(bctx, rng, plan, timer)
            else:
                # The adapter reads deterministic failed sets from the
                # same memoized failure matrix the executor uses.
                failed = (
                    bctx.failed_sets()
                    if bctx is not None
                    and getattr(self.fragility, "deterministic", False)
                    else None
                )
                codes = chain.run_scalar(
                    self._context(architecture, placement, scenario),
                    self.ensemble,
                    np.random.default_rng(self._seed),
                    failed,
                    timer,
                )
            if timer is not None:
                n = int(codes.shape[0])
                for name, total in timer.items():
                    obs.record_span(f"pipeline.stage.{name}", total, realizations=n)
                obs.inc("pipeline.realizations", n)
                if plan is not None:
                    obs.inc("pipeline.batched_runs")
        if timer is not None:
            for name, total in timer.items():
                obs.observe(f"pipeline.stage.{name}_s", total)
        if self.weights is None:
            return OperationalProfile.from_state_codes(codes)
        from repro.sampling.weighted import WeightedProfile

        # WeightedProfile duck-types the OperationalProfile read surface.
        return WeightedProfile.from_state_codes(codes, self.weights)  # type: ignore[return-value]

    def _plan(self, bctx: BatchContext | None) -> ChainBatchPlan | None:
        """The cell's batch plan, or ``None`` when the adapter runs it.

        ``batch=None`` falls back silently but counted: counters are
        flat name -> value maps, so the reason rides as a suffixed
        ``batch.fallback.reason.<slug>`` counter (plus a structured
        event) that `format_run_report` surfaces, so users can tell
        *why* a run is on the slow path.  ``batch=True`` raises instead.
        """
        if self.batch is False:
            return None
        plan = self.chain.batch_plan(bctx) if bctx is not None else None
        if plan is not None and plan.ok:
            return plan
        if plan is None:
            reason = "ensemble exposes no per-asset depth grid"
            slug = "no_depth_grid"
        else:
            reason = f"chain {self.chain.name!r} is unbatchable: {plan.reason}"
            slug = f"stage.{plan.stage}" if plan.stage else "unbatchable"
        if self.batch is True:
            raise AnalysisError(f"batched execution required but {reason}")
        obs = current_observer()
        obs.inc("batch.fallback")
        obs.inc(f"batch.fallback.reason.{slug}")
        obs.event("batch.fallback", reason=reason, chain=self.chain.name)
        return None

    def run_matrix(
        self,
        architectures: Sequence[ArchitectureSpec],
        placement: Placement,
        scenarios: Sequence[ThreatScenario],
    ) -> ScenarioMatrix:
        """Profiles for every (scenario, architecture) pair.

        One scenario row group of the returned matrix corresponds to one
        figure of the paper.
        """
        obs = current_observer()
        matrix = ScenarioMatrix(placement_label=placement.label())
        with obs.span(
            "analysis.run_matrix",
            placement=placement.label(),
            cells=len(architectures) * len(scenarios),
        ):
            for scenario in scenarios:
                for architecture in architectures:
                    matrix.add(
                        scenario.name,
                        architecture.name,
                        self.run(architecture, placement, scenario),
                    )
        return matrix
