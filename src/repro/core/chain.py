"""The composable threat chain: Fig. 5 as a sequence of stage transforms.

The paper's framework is a *pipeline* -- topology + hazard -> post-disaster
state -> post-attack state -> operational classification -- and every layer
the reproduction has grown since (grid power-flow cascades, WAN/power
interdependency, alternative hazards, alternative attackers) is another
state transform in that pipeline, not a fork of it.  This module makes the
pipeline explicit:

* :class:`Stage` -- the protocol every transform satisfies: a ``name``, a
  ``deterministic`` flag, and ``apply(state, ctx, rng) -> state``.
* :class:`ThreatChain` -- an ordered tuple of stages plus its one cell
  executor, :meth:`ThreatChain.run_batch`, and the whole-cell scalar
  adapter :meth:`ThreatChain.run_scalar` for chains that cannot batch.
* Built-in stages wrapping the existing layers:
  :class:`HazardImpactStage` (fragility -> flooded sites),
  :class:`InterdependencyStage` (grid contingency + WAN coupling from
  :mod:`repro.grid.storm_impact` / :mod:`repro.network.interdependency`),
  :class:`CyberAttackStage` (any :class:`Attacker`), and
  :class:`ClassificationStage` (Table I).
* A registry of named presets (``"paper"``, ``"grid-coupled"``,
  ``"earthquake"``), looked up like architectures and scenarios, so a
  :class:`~repro.api.StudyConfig` can select a chain by name.

The ``"paper"`` chain is bit-identical to the historical hardcoded
three-step loop: same rng consumption order, same states, same
classification.  ``scripts/bench_ensemble.py`` guards the scalar
adapter's overhead against the hardcoded loop (<3%).
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING, Iterable, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.core.attacker import WorstCaseAttacker, _replay_rows
from repro.core.batch import (
    BatchContext,
    BatchSupport,
    ChainBatch,
    ChainBatchPlan,
    attacker_batch_reason,
    classify_batch,
    fragility_batch_reason,
)
from repro.core.evaluator import evaluate
from repro.core.states import OperationalState
from repro.core.system_state import SystemState, initial_state
from repro.core.threat import CyberAttackBudget, ThreatScenario
from repro.errors import ConfigurationError
from repro.hazards.base import HazardRealization
from repro.hazards.fragility import FragilityModel, ThresholdFragility
from repro.registry import Registry
from repro.scada.architectures import ArchitectureSpec
from repro.scada.placement import Placement

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.grid.model import GridModel
    from repro.network.coupling import CouplingKernel
    from repro.network.interdependency import InterdependencyParams
    from repro.network.topology import WANTopology


@runtime_checkable
class Attacker(Protocol):
    """Anything that spends an attack budget on a post-disaster state."""

    name: str

    def attack(
        self,
        state: SystemState,
        budget: CyberAttackBudget,
        rng: np.random.Generator | None = None,
    ) -> SystemState:
        ...  # pragma: no cover - protocol


@dataclass(frozen=True)
class RealizationOutcome:
    """Full trace of one realization through the pipeline."""

    realization_index: int
    post_disaster: SystemState
    post_attack: SystemState
    state: OperationalState


class ChainContext:
    """Everything one realization's chain run can read (and annotate).

    One context is built per scalar-adapter cell and reused across
    realizations (the adapter resets the per-realization slots), so the
    hot loop allocates nothing but the states themselves.

    ``fragility`` and ``attacker`` are the *analysis-level* models; stages
    constructed without their own model inherit these.  ``failed`` is the
    current realization's failed-asset set under the analysis model when
    the adapter already knows it (a row of the memoized failure matrix),
    ``None`` to run the fragility model.  ``extras`` is a scratch mapping
    stages use to hand data downstream (e.g. the hazard stage publishes
    ``"failed_assets"``; the interdependency stage publishes its coupling
    summary).  ``memo`` is the study memo the analysis owns (the same
    dict its batch contexts carry as ``matrix_cache``); stages keep
    per-study results there, never on themselves.
    """

    __slots__ = (
        "architecture",
        "placement",
        "scenario",
        "realization",
        "fragility",
        "attacker",
        "failed",
        "classified",
        "extras",
        "memo",
    )

    def __init__(
        self,
        architecture: ArchitectureSpec,
        placement: Placement,
        scenario: ThreatScenario,
        realization: HazardRealization | None = None,
        *,
        fragility: FragilityModel | None = None,
        attacker: Attacker | None = None,
        memo: dict | None = None,
    ) -> None:
        self.architecture = architecture
        self.placement = placement
        self.scenario = scenario
        self.realization = realization
        self.memo = {} if memo is None else memo
        self.fragility = fragility if fragility is not None else ThresholdFragility()
        self.attacker = attacker if attacker is not None else WorstCaseAttacker()
        self.failed: frozenset[str] | None = None
        self.classified: OperationalState | None = None
        self.extras: dict[str, object] = {}

    def failed_assets(self, rng: np.random.Generator | None) -> frozenset[str]:
        """The current realization's failed assets under the analysis model."""
        if self.failed is not None:
            return self.failed
        if self.realization is None:
            raise ConfigurationError("chain context has no realization")
        return self.realization.failed_assets(self.fragility, rng)

    def base_state(self) -> SystemState:
        """The deployed architecture untouched by any hazard."""
        return initial_state(self.architecture, self.placement, ())


@runtime_checkable
class Stage(Protocol):
    """One transform of the threat chain.

    ``deterministic`` declares whether ``apply`` is a pure function of
    ``(state, ctx.realization)`` -- i.e. never consumes the rng; it is
    recorded in the run manifest's chain spec.
    """

    name: str

    @property
    def deterministic(self) -> bool:
        ...  # pragma: no cover - protocol

    def apply(
        self,
        state: SystemState | None,
        ctx: ChainContext,
        rng: np.random.Generator | None,
    ) -> SystemState:
        ...  # pragma: no cover - protocol


@runtime_checkable
class BatchedStage(Stage, Protocol):
    """A stage that can also run as one fused pass over the whole grid.

    ``apply_batch`` is the batched analogue of ``apply``: it transforms
    a :class:`~repro.core.batch.ChainBatch` (``None`` meaning "no stage
    has run yet", exactly like ``apply``'s ``None`` state) under a
    :class:`~repro.core.batch.BatchContext` and must be bitwise-faithful
    to applying the scalar stage per realization.

    A stage whose capability depends on the context (its model, or a
    stochastic model under the RNG-draw contract) also implements
    ``batch_support(ctx, upstream_failed=...) -> BatchSupport``: whether
    it can batch, and how many uniform draws one scalar application
    consumes per realization.  Its ``apply_batch`` then reads the
    executor-provided ``ctx.draws`` column block instead of the rng.
    :meth:`ThreatChain.batch_plan` folds the declarations into a
    :class:`~repro.core.batch.ChainBatchPlan`; ``upstream_failed`` tells
    the stage whether a failed-grid-producing stage precedes it.  A
    stage with ``apply_batch`` and no ``batch_support`` is draw-free; a
    stage without ``apply_batch`` sends its chain through the scalar
    adapter.
    """

    def apply_batch(
        self,
        batch: ChainBatch | None,
        ctx: BatchContext,
        rng: np.random.Generator | None,
    ) -> ChainBatch:
        ...  # pragma: no cover - protocol


@dataclass(frozen=True)
class HazardImpactStage:
    """Fig. 5 box one: natural-disaster impact via the fragility model.

    With ``fragility=None`` (the presets) the stage inherits the
    analysis-level model through the context, so it reads the analysis's
    memoized failure matrix on both executors.
    """

    fragility: FragilityModel | None = None
    name: str = "fragility"

    #: The state this stage produces is the chain's post-disaster state.
    captures = "post_disaster"
    #: Its batched pass publishes the failed-asset grid (``batch.failed``)
    #: for downstream stages -- ``batch_plan`` tracks this so stages after
    #: it know they will be fed the grid instead of computing their own.
    emits_failed_grid = True

    @property
    def deterministic(self) -> bool:
        # An inherited model is the analysis's; the stage itself adds no
        # randomness beyond it.
        if self.fragility is None:
            return True
        return bool(getattr(self.fragility, "deterministic", False))

    def apply(
        self,
        state: SystemState | None,
        ctx: ChainContext,
        rng: np.random.Generator | None,
    ) -> SystemState:
        if self.fragility is None:
            failed = ctx.failed_assets(rng)
        else:
            failed = ctx.realization.failed_assets(self.fragility, rng)
        ctx.extras["failed_assets"] = failed
        return initial_state(ctx.architecture, ctx.placement, failed)

    def batch_support(
        self, ctx: BatchContext, upstream_failed: bool = False
    ) -> BatchSupport:
        model = self.fragility if self.fragility is not None else ctx.fragility
        reason = fragility_batch_reason(model)
        if reason is not None:
            return BatchSupport(False, reason)
        if getattr(model, "deterministic", False):
            return BatchSupport(True)
        # One uniform draw per asset per realization -- the scalar
        # failed_assets stride under the RNG-draw contract.
        return BatchSupport(True, draws=len(ctx.asset_names))

    def apply_batch(
        self,
        batch: ChainBatch | None,
        ctx: BatchContext,
        rng: np.random.Generator | None,
    ) -> ChainBatch:
        # Like `apply`, the hazard stage ignores any incoming state: its
        # output is the post-disaster initial state for every realization.
        model = self.fragility if self.fragility is not None else ctx.fragility
        if getattr(model, "deterministic", False):
            failed = ctx.failure_matrix(self.fragility)
        else:
            if ctx.draws is None:
                raise ConfigurationError(
                    "batched stochastic fragility needs the executor's "
                    "draw block (run through ThreatChain.run_batch)"
                )
            # Probabilities are a pure function of the depth grid and
            # memoized across cells; the sampled outcomes are not (each
            # cell draws its own fresh stream, like the scalar loop).
            failed = model.sample_failure_matrix(
                ctx.depths, ctx.draws, probabilities=ctx.probability_matrix(model)
            )
        fresh = ctx.fresh_batch(failed)
        if batch is not None and batch.classified is not None:
            # A classification recorded earlier in the chain survives,
            # exactly as `ctx.classified` does in the scalar executor.
            fresh = fresh.replace(classified=batch.classified)
        return fresh


class InterdependencyStage:
    """Grid/WAN coupling: the disaster's *indirect* control-site outages.

    The same realization that floods control sites also floods grid buses
    (:mod:`repro.grid.storm_impact`); the surviving grid re-islands under
    a cascade, WAN PoPs on badly-shed islands go dark, and dark PoPs
    partition the WAN (:mod:`repro.network.interdependency`).  Control
    sites cut off from the largest mutually-reachable site group become
    ``isolated`` in the system state -- so the downstream attack and
    classification stages see the compound (grid + comms) impact, not
    just the direct inundation.

    The coupling is deterministic per failed-bus set.  Both executors
    pack each realization's failed buses into a pattern code and run the
    batched :class:`~repro.network.coupling.CouplingKernel` on the codes
    the study has not met yet (``apply`` is the kernel with one
    pattern).  Results live in the study memo the context carries
    (:func:`~repro.grid.kernel.lookup_patterns`), so an ensemble pays
    one cascade per *distinct* damage pattern and the stage itself keeps
    nothing between studies but its compiled substrate.
    """

    name = "interdependency"
    deterministic = True
    captures = "post_disaster"
    #: Its batched pass back-fills ``batch.failed`` when no hazard stage
    #: ran before it, so downstream stages see the grid either way.
    emits_failed_grid = True

    def __init__(
        self,
        grid: "GridModel | None" = None,
        wan: "WANTopology | None" = None,
        pop_to_bus: dict[str, str] | None = None,
        params: "InterdependencyParams | None" = None,
    ) -> None:
        self._grid = grid
        self._wan = wan
        self._pop_to_bus = dict(pop_to_bus) if pop_to_bus is not None else None
        self._params = params
        self._kernel: "CouplingKernel | None" = None

    def kernel(self) -> "CouplingKernel":
        """The compiled substrate (default: Oahu), built once per stage."""
        if self._kernel is None:
            from repro.grid.kernel import SUBSTRATE_LOCK

            with SUBSTRATE_LOCK:
                if self._kernel is None:
                    self._kernel = self._build_kernel()
        return self._kernel

    def _build_kernel(self) -> "CouplingKernel":
        from repro.network.coupling import CouplingKernel
        from repro.network.interdependency import OAHU_POP_POWER, InterdependencyParams

        grid, wan = self._grid, self._wan
        if grid is None:
            from repro.grid.model import build_oahu_grid

            grid = build_oahu_grid()
        if wan is None:
            from repro.geo import (
                DRFORTRESS,
                HONOLULU_CC,
                KAHE_CC,
                WAIAU_CC,
                build_oahu_catalog,
            )
            from repro.network.topology import build_site_wan

            wan = build_site_wan(
                build_oahu_catalog(),
                [HONOLULU_CC, WAIAU_CC, KAHE_CC, DRFORTRESS],
            )
        return CouplingKernel(
            grid,
            wan,
            self._pop_to_bus if self._pop_to_bus is not None else dict(OAHU_POP_POWER),
            self._params if self._params is not None else InterdependencyParams(),
        )

    def apply(
        self,
        state: SystemState | None,
        ctx: ChainContext,
        rng: np.random.Generator | None,
    ) -> SystemState:
        from repro.grid.kernel import lookup_patterns

        if state is None:
            state = ctx.base_state()
        failed = ctx.extras.get("failed_assets")
        if failed is None:
            failed = ctx.failed_assets(rng)
            ctx.extras["failed_assets"] = failed
        kernel = self.kernel()
        code = kernel.grid.code_of(failed)
        (row,) = lookup_patterns(ctx.memo, kernel, np.array([code]), kernel.rows)
        isolated, summary = kernel.summary(code, row)
        ctx.extras["interdependency"] = summary
        if isolated:
            for index, site in enumerate(state.sites):
                if site.asset_name in isolated and not site.isolated:
                    state = state.with_isolation(index)
        return state

    def batch_support(
        self, ctx: BatchContext, upstream_failed: bool = False
    ) -> BatchSupport:
        # Fed an upstream failed grid (the registered chains always put
        # a hazard stage first) the coupling is a pure function of it --
        # stochastic fragility included, since the hazard stage already
        # sampled.  Only when the stage would have to compute the grid
        # itself does it need a deterministic analysis-level model.
        if upstream_failed or getattr(ctx.fragility, "deterministic", False):
            return BatchSupport(True)
        return BatchSupport(
            False,
            "no upstream hazard stage and the analysis fragility model "
            "is stochastic; the coupling cannot sample it",
        )

    def apply_batch(
        self,
        batch: ChainBatch | None,
        ctx: BatchContext,
        rng: np.random.Generator | None,
    ) -> ChainBatch:
        from repro.grid.kernel import lookup_patterns
        from repro.grid.storm_impact import damage_pattern_groups

        if batch is None:
            batch = ctx.base_batch()
        failed = batch.failed
        if failed is None:
            failed = ctx.failure_matrix()
            batch = batch.replace(failed=failed)
        kernel = self.kernel()
        codes, inverse = damage_pattern_groups(
            failed, ctx.asset_names, kernel.grid.bus_names
        )
        rows = lookup_patterns(ctx.memo, kernel, codes, kernel.rows)
        masks = kernel.site_masks((row[0] for row in rows), ctx.site_names)
        return batch.replace(isolated=batch.isolated | masks[inverse])


@dataclass(frozen=True)
class CyberAttackStage:
    """Fig. 5 box two: the follow-on cyberattack spends its budget.

    With ``attacker=None`` (the presets) the stage inherits the
    analysis-level attacker from the context, so ``StudyConfig.attacker``
    and ``CompoundThreatAnalysis(attacker=...)`` keep working.
    """

    attacker: Attacker | None = None
    name: str = "cyberattack"

    #: The state this stage produces is the chain's post-attack state.
    captures = "post_attack"

    @property
    def deterministic(self) -> bool:
        # An inherited attacker defaults to the deterministic worst-case
        # model; an explicit one reports its own flag (absent -> assume
        # stochastic, the safe direction for memo sharing).
        if self.attacker is None:
            return True
        return bool(getattr(self.attacker, "deterministic", False))

    def apply(
        self,
        state: SystemState | None,
        ctx: ChainContext,
        rng: np.random.Generator | None,
    ) -> SystemState:
        if state is None:
            state = ctx.base_state()
        attacker = self.attacker if self.attacker is not None else ctx.attacker
        return attacker.attack(state, ctx.scenario.budget, rng)

    def batch_support(
        self, ctx: BatchContext, upstream_failed: bool = False
    ) -> BatchSupport:
        attacker = self.attacker if self.attacker is not None else ctx.attacker
        reason = attacker_batch_reason(attacker)
        if reason is not None:
            return BatchSupport(False, reason)
        if getattr(attacker, "deterministic", False):
            # Deterministic attackers batch draw-free: a native kernel
            # when they have one, per-pattern replay otherwise.
            return BatchSupport(True)
        # A stochastic attacker batches under the RNG-draw contract,
        # declaring its per-realization draw count.
        draws = getattr(attacker, "batch_draws")(ctx.scenario.budget)
        return BatchSupport(True, draws=int(draws))

    def apply_batch(
        self,
        batch: ChainBatch | None,
        ctx: BatchContext,
        rng: np.random.Generator | None,
    ) -> ChainBatch:
        if batch is None:
            batch = ctx.base_batch()
        attacker = self.attacker if self.attacker is not None else ctx.attacker
        native = getattr(attacker, "attack_batch", None)
        if callable(native):
            if ctx.draws is not None:
                isolated, intrusions = native(
                    ctx.architecture,
                    batch.flooded,
                    batch.isolated,
                    batch.intrusions,
                    ctx.scenario.budget,
                    draws=ctx.draws,
                )
            else:
                # Draw-free stages keep the historical 5-argument call,
                # so custom attackers with the old signature still work.
                isolated, intrusions = native(
                    ctx.architecture,
                    batch.flooded,
                    batch.isolated,
                    batch.intrusions,
                    ctx.scenario.budget,
                )
        else:
            # A deterministic attacker without a kernel: attack each
            # distinct (flooded, isolated, intrusions) row once.
            isolated, intrusions = _replay_rows(
                attacker,
                ctx.architecture,
                batch.flooded,
                batch.isolated,
                batch.intrusions,
                ctx.scenario.budget,
                site_names=ctx.site_names,
            )
        return batch.replace(isolated=isolated, intrusions=intrusions)


@dataclass(frozen=True)
class ClassificationStage:
    """Fig. 5 box three: Table I maps the final state to a color."""

    name: str = "classification"
    deterministic: bool = True

    def apply(
        self,
        state: SystemState | None,
        ctx: ChainContext,
        rng: np.random.Generator | None,
    ) -> SystemState:
        if state is None:
            state = ctx.base_state()
        ctx.classified = evaluate(state)
        return state

    def apply_batch(
        self,
        batch: ChainBatch | None,
        ctx: BatchContext,
        rng: np.random.Generator | None,
    ) -> ChainBatch:
        if batch is None:
            batch = ctx.base_batch()
        return batch.replace(classified=classify_batch(ctx, batch))


@dataclass(frozen=True)
class NoOpStage:
    """An identity stage; exists for composition tests and as a template."""

    name: str = "noop"
    deterministic: bool = True

    def apply(
        self,
        state: SystemState | None,
        ctx: ChainContext,
        rng: np.random.Generator | None,
    ) -> SystemState:
        return state

    def apply_batch(
        self,
        batch: ChainBatch | None,
        ctx: BatchContext,
        rng: np.random.Generator | None,
    ) -> ChainBatch:
        return batch if batch is not None else ctx.base_batch()


@dataclass(frozen=True)
class ThreatChain:
    """An ordered pipeline of stages plus its executor.

    Stage names need not be unique; per-stage timings accumulate by name.
    A chain without a :class:`ClassificationStage` still classifies: both
    the executor and the adapter evaluate the final state when no stage
    did.
    """

    name: str
    stages: tuple[Stage, ...]
    description: str = ""

    def __post_init__(self) -> None:
        if not self.stages:
            raise ConfigurationError("a threat chain needs at least one stage")
        for stage in self.stages:
            if not getattr(stage, "name", None) or not hasattr(stage, "apply"):
                raise ConfigurationError(
                    f"{stage!r} does not satisfy the Stage protocol "
                    "(needs a name and an apply method)"
                )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stage_names(self) -> tuple[str, ...]:
        return tuple(stage.name for stage in self.stages)

    def deterministic_prefix(self) -> tuple[str, ...]:
        """Names of the leading stages that never consume the rng."""
        names: list[str] = []
        for stage in self.stages:
            if not stage.deterministic:
                break
            names.append(stage.name)
        return tuple(names)

    def spec(self) -> dict:
        """The resolved chain description recorded in run manifests."""
        return {
            "name": self.name,
            "stages": [
                {
                    "name": stage.name,
                    "type": type(stage).__name__,
                    "deterministic": bool(stage.deterministic),
                }
                for stage in self.stages
            ],
        }

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self, ctx: ChainContext, rng: np.random.Generator | None
    ) -> RealizationOutcome:
        """One realization through every stage, with state snapshots."""
        snapshots: dict[str, SystemState] = {}
        state = self._apply(ctx, rng, None, snapshots)
        return self._outcome(ctx, state, snapshots)

    def run_scalar(
        self,
        ctx: ChainContext,
        realizations: Iterable[HazardRealization],
        rng: np.random.Generator | None,
        failed: Sequence[frozenset[str]] | None = None,
        timer: dict[str, float] | None = None,
    ) -> np.ndarray:
        """The whole-cell scalar adapter, returning :meth:`run_batch`'s codes.

        Walks each realization through the stages' scalar ``apply`` and
        returns the same ``(n_realizations,)`` severity codes the batched
        executor does.  It serves chains the executor cannot run (a
        scalar-only stage, a model without the RNG-draw contract, an
        ensemble without a depth grid) and is the reference the batched
        path is tested against.  ``failed[i]``, when given, is
        realization ``i``'s failed-asset set under the analysis model
        (see :attr:`ChainContext.failed`).  ``timer`` accumulates
        per-stage wall-clock seconds by stage name.
        """
        codes: list[int] = []
        for i, realization in enumerate(realizations):
            ctx.realization = realization
            ctx.failed = None if failed is None else failed[i]
            state = self._apply(ctx, rng, timer)
            classified = ctx.classified
            if classified is None:
                classified = evaluate(state if state is not None else ctx.base_state())
            codes.append(classified.severity)
        ctx.failed = None
        return np.array(codes, dtype=np.int64)

    def _apply(
        self,
        ctx: ChainContext,
        rng: np.random.Generator | None,
        timer: dict[str, float] | None,
        snapshots: dict[str, SystemState] | None = None,
    ) -> SystemState | None:
        """The per-realization stage loop shared by run and run_scalar."""
        ctx.classified = None
        ctx.extras.clear()
        state: SystemState | None = None
        for stage in self.stages:
            if timer is None:
                state = stage.apply(state, ctx, rng)
            else:
                t0 = perf_counter()
                state = stage.apply(state, ctx, rng)
                timer[stage.name] = timer.get(stage.name, 0.0) + perf_counter() - t0
            if snapshots is not None:
                captures = getattr(stage, "captures", None)
                if captures is not None:
                    snapshots[captures] = state
        return state

    def batch_plan(self, ctx: BatchContext) -> ChainBatchPlan:
        """The chain's batch capability and per-stage rng-draw layout.

        Walks the stages collecting their :class:`BatchSupport`
        declarations (a stage with ``apply_batch`` and no
        ``batch_support`` is draw-free).  ``upstream_failed`` tracks
        whether a failed-grid-producing stage precedes, so e.g. the
        interdependency coupling batches under stochastic fragility
        whenever a hazard stage feeds it.  A stage without
        ``apply_batch``, or one that declines, yields a not-``ok`` plan
        whose reason names the obstacle; the analysis then runs the cell
        through :meth:`run_scalar` and counts ``batch.fallback``.
        """
        stage_draws: list[int] = []
        upstream_failed = False
        for stage in self.stages:
            if not callable(getattr(stage, "apply_batch", None)):
                return ChainBatchPlan(
                    False,
                    f"stage {stage.name!r} has no batched implementation",
                    stage=stage.name,
                )
            probe = getattr(stage, "batch_support", None)
            support = (
                probe(ctx, upstream_failed=upstream_failed)
                if callable(probe)
                else BatchSupport(True)
            )
            if not support.ok:
                return ChainBatchPlan(
                    False,
                    f"stage {stage.name!r}: {support.reason}",
                    stage=stage.name,
                )
            stage_draws.append(int(support.draws))
            if getattr(stage, "emits_failed_grid", False):
                upstream_failed = True
        return ChainBatchPlan(True, None, tuple(stage_draws))

    def run_batch(
        self,
        ctx: BatchContext,
        rng: np.random.Generator | None,
        plan: ChainBatchPlan | None = None,
        timer: dict[str, float] | None = None,
    ) -> np.ndarray:
        """Every realization through every stage as fused numpy passes.

        The analysis executor.  Returns ``(n_realizations,)`` severity
        codes indexing :data:`~repro.core.states.STATE_ORDER`, bitwise
        identical to :meth:`run_scalar` for the built-in stages.
        Stochastic stages replay the scalar stream from one up-front
        matrix draw (the RNG-draw contract): the executor hands each
        stage its column block through ``ctx.draws``.  ``timer``
        accumulates per-stage wall-clock seconds by stage name.
        """
        blocks = self._draw_blocks(ctx, rng, plan)
        batch: ChainBatch | None = None
        try:
            for stage, block in zip(self.stages, blocks):
                t0 = perf_counter()
                ctx.draws = block
                batch = getattr(stage, "apply_batch")(batch, ctx, rng)
                if timer is not None:
                    timer[stage.name] = (
                        timer.get(stage.name, 0.0) + perf_counter() - t0
                    )
        finally:
            ctx.draws = None
        return self._batch_codes(ctx, batch)

    def _draw_blocks(
        self,
        ctx: BatchContext,
        rng: np.random.Generator | None,
        plan: ChainBatchPlan | None,
    ) -> tuple[np.ndarray | None, ...]:
        """Materialize the per-stage draw blocks for one batched run."""
        if plan is None:
            plan = self.batch_plan(ctx)
        if not plan.ok or len(plan.stage_draws) != len(self.stages):
            return tuple(None for _ in self.stages)
        return plan.draw_blocks(ctx.n_realizations, rng)

    def _batch_codes(
        self, ctx: BatchContext, batch: ChainBatch | None
    ) -> np.ndarray:
        # Mirror the scalar executor's tail: a chain that never classified
        # evaluates its final state (base state when no stage produced one).
        if batch is None:
            batch = ctx.base_batch()
        if batch.classified is not None:
            return batch.classified
        return classify_batch(ctx, batch)

    def _outcome(
        self,
        ctx: ChainContext,
        state: SystemState | None,
        snapshots: dict[str, SystemState],
    ) -> RealizationOutcome:
        if state is None:
            state = ctx.base_state()
        post_attack = snapshots.get("post_attack", state)
        post_disaster = snapshots.get("post_disaster", post_attack)
        classified = ctx.classified
        if classified is None:
            classified = evaluate(state)
        return RealizationOutcome(
            realization_index=ctx.realization.index,
            post_disaster=post_disaster,
            post_attack=post_attack,
            state=classified,
        )


# ----------------------------------------------------------------------
# Registry (mirrors architectures / scenarios)
# ----------------------------------------------------------------------
_CHAINS: Registry[ThreatChain] = Registry("threat chain", plural="chains")


def register_chain(chain: ThreatChain, *, replace: bool = False) -> ThreatChain:
    """Register a chain under its name; returns it for assignment."""
    return _CHAINS.register(chain.name, chain, replace=replace)


def get_chain(name: str) -> ThreatChain:
    """Look up a registered threat chain by name."""
    return _CHAINS.get(name)


def available_chains() -> list[str]:
    """Registered chain names, sorted."""
    return _CHAINS.available()


def resolve_chain(chain: "ThreatChain | str | None") -> ThreatChain:
    """Normalize a chain argument: ``None`` -> paper, name -> registry."""
    if chain is None:
        return CHAIN_PAPER
    if isinstance(chain, str):
        return get_chain(chain)
    if not isinstance(chain, ThreatChain):
        raise ConfigurationError(
            f"chain must be a ThreatChain or a registered name, "
            f"not {type(chain).__name__}"
        )
    return chain


#: The paper's exact Fig. 5 pipeline (bit-identical to the historical
#: hardcoded loop): fragility -> worst-case attack -> Table I.
CHAIN_PAPER = register_chain(
    ThreatChain(
        name="paper",
        stages=(HazardImpactStage(), CyberAttackStage(), ClassificationStage()),
        description="The paper's three-stage pipeline (Fig. 5).",
    )
)

#: The paper pipeline with the grid/WAN interdependency coupling between
#: disaster impact and attack: storm-damaged buses cascade, dark PoPs
#: partition the WAN, and cut-off control sites enter the attack stage
#: already isolated.
CHAIN_GRID_COUPLED = register_chain(
    ThreatChain(
        name="grid-coupled",
        stages=(
            HazardImpactStage(),
            InterdependencyStage(),
            CyberAttackStage(),
            ClassificationStage(),
        ),
        description=(
            "Fig. 5 plus the grid contingency / WAN interdependency "
            "coupling between the disaster and the attack."
        ),
    )
)

#: The hazard-agnostic chain for non-inundation disasters: identical
#: stage structure to "paper", relying only on the hazard substrate's
#: ``failed_assets`` contract (pair with e.g. ``seismic_fragility()``).
CHAIN_EARTHQUAKE = register_chain(
    ThreatChain(
        name="earthquake",
        stages=(HazardImpactStage(), CyberAttackStage(), ClassificationStage()),
        description=(
            "The Fig. 5 stages over any failed-assets hazard; the "
            "earthquake ensemble's PGA realizations plug in unchanged."
        ),
    )
)

#: Riverine flooding shares the hurricane's intensity measure (depth in
#: metres), so the flood preset is the same stage structure again -- the
#: flood ensemble's depth realizations plug straight into the default
#: ThresholdFragility.
CHAIN_FLOOD = register_chain(
    ThreatChain(
        name="flood",
        stages=(HazardImpactStage(), CyberAttackStage(), ClassificationStage()),
        description=(
            "The Fig. 5 stages over the riverine flood ensemble's "
            "depth realizations."
        ),
    )
)
