"""Fused batched execution of the threat chain (the hot-path kernels).

:meth:`~repro.core.chain.ThreatChain.run_batch` is the analysis
executor: it evaluates a whole (realization x asset) grid in a handful
of numpy passes -- fragility thresholds as one matrix comparison, the
grid/WAN cascade as one kernel call over the *distinct* damage patterns
the study memo does not hold yet,
the worst-case attack as a vectorized greedy sweep
(:meth:`~repro.core.attacker.WorstCaseAttacker.attack_batch`), and
Table I as a vectorized rule table
(:func:`~repro.core.evaluator.evaluate_batch`).  This module holds the
structures it runs on.

Correctness contract: the batched path must be **bitwise identical** to
the whole-cell scalar adapter
(:meth:`~repro.core.chain.ThreatChain.run_scalar`), which walks each
realization through the stages' scalar ``apply``.  Everything here is a
straight vectorization of the scalar code in
:mod:`repro.core.evaluator`, :mod:`repro.core.attacker`, and
:mod:`repro.core.chain` -- never a re-derivation -- and
``tests/core/test_batch_properties.py`` compares the two element-wise
across randomized thresholds, attackers, and asset sets for every
registered preset.

Stochastic stages batch too, under the **RNG-draw contract**: every
stochastic model consumes a *fixed number* of uniform draws per
realization (``rng.random(shape)``, never data-dependent), so the
per-realization loop's interleaved stream is fixed-stride and the
batched executor can replay it exactly -- one
``rng.random((n_realizations, total_draws))`` matrix draw fills
row-major, which is the same generator stream as ``n`` successive
per-realization draws, and each stage reads its column block.  Stages
declare their capability (and per-realization draw count) through
:class:`BatchSupport`; :meth:`~repro.core.chain.ThreatChain.batch_plan`
folds the declarations into a :class:`ChainBatchPlan` the executor and
the analysis consult.  A model that cannot honor the contract declines
with a reason (:func:`fragility_batch_reason`,
:func:`attacker_batch_reason`), and the analysis runs the cell through
the scalar adapter instead (counter ``batch.fallback``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.core.evaluator import evaluate_batch
from repro.core.threat import ThreatScenario
from repro.errors import AnalysisError
from repro.hazards.fragility import FragilityModel
from repro.obs.observer import current as current_observer
from repro.scada.architectures import ArchitectureSpec
from repro.scada.placement import Placement

if TYPE_CHECKING:  # pragma: no cover - typing-only import (cycle guard)
    from repro.core.chain import Attacker

__all__ = [
    "BatchSupport",
    "ChainBatchPlan",
    "ChainBatch",
    "BatchContext",
    "model_token",
    "fragility_batch_reason",
    "attacker_batch_reason",
    "classify_batch",
]


@dataclass(frozen=True)
class BatchSupport:
    """One stage's batch-capability declaration for a specific context.

    ``ok`` says whether the stage can run the fused pass, ``reason``
    names the obstacle when it cannot (surfaced through the
    ``batch.fallback`` counter and ``batch=True`` errors), and
    ``draws`` declares how many uniform rng doubles one *scalar*
    application of the stage consumes per realization -- the stage's
    stride in the RNG-draw contract (0 for deterministic stages).
    """

    ok: bool
    reason: str | None = None
    draws: int = 0


@dataclass(frozen=True)
class ChainBatchPlan:
    """A whole chain's batch verdict plus its per-stage draw layout.

    Built by :meth:`~repro.core.chain.ThreatChain.batch_plan` from the
    stages' :class:`BatchSupport` declarations.  ``stage_draws[i]`` is
    stage ``i``'s per-realization draw count; the executor materializes
    the scalar loop's whole stream as one
    ``rng.random((n_realizations, total_draws))`` matrix (row-major
    fill == per-realization draw order) and hands each stage its
    column block.
    """

    ok: bool
    reason: str | None = None
    stage_draws: tuple[int, ...] = ()
    #: Name of the declining stage when ``not ok`` (None when the whole
    #: context is unusable, e.g. no depth grid); keys the per-reason
    #: ``batch.fallback.reason.*`` counter split.
    stage: str | None = None

    @property
    def total_draws(self) -> int:
        """Uniform doubles one realization consumes across the chain."""
        return sum(self.stage_draws)

    def draw_blocks(
        self, n_realizations: int, rng: np.random.Generator | None
    ) -> tuple[np.ndarray | None, ...]:
        """Per-stage draw blocks replaying the scalar stream exactly.

        One ``rng.random((n, total))`` draw consumes the identical
        PCG64 stream as ``n`` successive per-realization scalar draws
        (numpy fills C-contiguous row-major), so slicing row ``r``'s
        columns reproduces realization ``r``'s draws bit for bit.
        """
        total = self.total_draws
        if total == 0:
            return tuple(None for _ in self.stage_draws)
        if rng is None:
            raise AnalysisError(
                f"chain draw plan needs an rng: stages consume "
                f"{total} stochastic draws per realization"
            )
        matrix = rng.random((n_realizations, total))
        blocks: list[np.ndarray | None] = []
        offset = 0
        for count in self.stage_draws:
            blocks.append(matrix[:, offset : offset + count] if count else None)
            offset += count
        return tuple(blocks)


def model_token(model: object) -> object:
    """A dict key identifying a model instance for memoization.

    Hashable models (the library's frozen dataclasses) key by value, so
    two equal thresholds share one failure matrix; unhashable models
    fall back to identity.
    """
    try:
        hash(model)
    except TypeError:
        return id(model)
    return model


def fragility_batch_reason(model: FragilityModel) -> str | None:
    """Why ``model`` cannot run the batched fragility pass, or ``None``.

    Deterministic models batch draw-free; stochastic ones must declare
    the RNG-draw batch-sampling contract.  The one rule behind both
    :meth:`~repro.core.chain.HazardImpactStage.batch_support` and the
    ``StudyConfig(batch=True)`` preflight.
    """
    if getattr(model, "deterministic", False) or getattr(
        model, "batch_sampling", False
    ):
        return None
    return (
        f"fragility model {type(model).__name__} does not declare the "
        "RNG-draw batch-sampling contract"
    )


def attacker_batch_reason(attacker: "Attacker") -> str | None:
    """Why ``attacker`` cannot run the batched attack pass, or ``None``.

    Deterministic attackers batch draw-free (a native kernel, or
    per-pattern replay); stochastic ones need a kernel consuming the
    executor's draw block plus their per-realization draw count.
    """
    if getattr(attacker, "deterministic", False):
        return None
    if callable(getattr(attacker, "batch_draws", None)) and callable(
        getattr(attacker, "attack_batch", None)
    ):
        return None
    label = getattr(attacker, "name", type(attacker).__name__)
    return (
        f"attacker {label!r} is stochastic without an RNG-draw batched "
        "kernel (attack_batch + batch_draws)"
    )


@dataclass(frozen=True, eq=False)
class ChainBatch:
    """The batched analogue of a :class:`SystemState` mid-chain.

    All site arrays are aligned ``(n_realizations, n_sites)`` grids in
    the architecture's slot order.  ``failed`` is the hazard stage's
    ``(n_realizations, n_assets)`` failed-asset grid handed downstream
    (the batched analogue of ``ctx.extras["failed_assets"]``); it is
    ``None`` until a hazard stage runs.  ``classified`` is set by a
    classification stage: ``(n_realizations,)`` severity codes indexing
    :data:`~repro.core.states.STATE_ORDER`.
    """

    flooded: np.ndarray
    isolated: np.ndarray
    intrusions: np.ndarray
    failed: np.ndarray | None = None
    classified: np.ndarray | None = None

    def replace(self, **changes: object) -> "ChainBatch":
        return dataclasses.replace(self, **changes)  # type: ignore[arg-type]


class BatchContext:
    """Everything one batched chain run can read.

    The per-cell analogue of :class:`~repro.core.chain.ChainContext`:
    one is built per (architecture, placement, scenario) cell, wrapping
    the ensemble's full ``(n_realizations, n_assets)`` depth matrix
    instead of one realization.  ``matrix_cache`` is the externally
    owned study memo the pipeline shares across cells: model token ->
    failure or probability grid, so an ensemble pays one fragility pass
    per distinct model (every lookup counts
    ``pipeline.matrix_cache.hit``/``.miss``), and stage substrate ->
    per-damage-pattern rows (:attr:`memo`,
    :func:`~repro.grid.kernel.lookup_patterns`).
    """

    __slots__ = (
        "architecture",
        "placement",
        "scenario",
        "fragility",
        "attacker",
        "asset_names",
        "depths",
        "site_names",
        "draws",
        "_site_columns",
        "_matrix_cache",
    )

    def __init__(
        self,
        architecture: ArchitectureSpec,
        placement: Placement,
        scenario: ThreatScenario,
        *,
        fragility: FragilityModel,
        attacker: "Attacker",
        asset_names: list[str],
        depths: np.ndarray,
        matrix_cache: dict | None = None,
    ) -> None:
        self.architecture = architecture
        self.placement = placement
        self.scenario = scenario
        self.fragility = fragility
        self.attacker = attacker
        self.asset_names = list(asset_names)
        self.depths = depths
        self.site_names = placement.sites_for(architecture)
        columns = {name: i for i, name in enumerate(self.asset_names)}
        # A placed site absent from the hazard catalog never floods --
        # exactly as a name missing from a failed-asset set.
        self._site_columns = tuple(columns.get(n) for n in self.site_names)
        self._matrix_cache = {} if matrix_cache is None else matrix_cache
        #: The executor assigns the current stage's uniform draw block
        #: ((n_realizations, stage_draws) or ``None``) here immediately
        #: before each ``apply_batch`` call -- the batched analogue of
        #: handing the shared generator down the scalar chain.
        self.draws: np.ndarray | None = None

    @property
    def memo(self) -> dict:
        """The study memo (shared across cells, owned by the analysis)."""
        return self._matrix_cache

    @property
    def n_realizations(self) -> int:
        return int(self.depths.shape[0])

    def failure_matrix(self, model: FragilityModel | None = None) -> np.ndarray:
        """The (memoized) failed-asset grid under ``model``.

        ``None`` selects the analysis-level fragility model, mirroring
        how stages built without their own model inherit the context's.
        """
        resolved = model if model is not None else self.fragility
        return self._memo(model_token(resolved), resolved.failure_matrix)

    def probability_matrix(self, model: FragilityModel | None = None) -> np.ndarray:
        """The (memoized) failure-probability grid under ``model``.

        The stochastic counterpart of :meth:`failure_matrix`: a pure
        function of the depth grid (no draws), so it shares the same
        externally owned memo across matrix cells -- each cell then
        samples its own fresh draw block against it.  The sampled
        boolean outcomes are never cached (they depend on the cell's
        rng stream).
        """
        resolved = model if model is not None else self.fragility
        return self._memo(
            ("probability", model_token(resolved)), resolved.probability_matrix
        )

    def _memo(
        self, token: object, build: Callable[[np.ndarray], np.ndarray]
    ) -> np.ndarray:
        obs = current_observer()
        try:
            matrix = self._matrix_cache[token]
        except KeyError:
            obs.inc("pipeline.matrix_cache.miss")
            matrix = self._matrix_cache[token] = build(self.depths)
            return matrix
        obs.inc("pipeline.matrix_cache.hit")
        return matrix

    def failed_sets(self) -> list[frozenset[str]]:
        """The analysis model's failure matrix as one failed set per row.

        What the scalar adapter hands each realization's hazard stage
        when the analysis fragility is deterministic: the same memoized
        grid the batched pass reads, so both paths share one fragility
        pass.  Rows repeat heavily (most realizations flood nothing), so
        each distinct row becomes a set once.
        """
        rows, inverse = np.unique(
            self.failure_matrix(), axis=0, return_inverse=True
        )
        names = self.asset_names
        sets = [frozenset(n for n, hit in zip(names, row) if hit) for row in rows]
        return [sets[i] for i in np.asarray(inverse).reshape(-1)]

    def flooded_sites(self, failed: np.ndarray) -> np.ndarray:
        """Map a failed-asset grid onto the placed site slots."""
        out = np.zeros((self.n_realizations, len(self.site_names)), dtype=bool)
        for j, col in enumerate(self._site_columns):
            if col is not None:
                out[:, j] = failed[:, col]
        return out

    def fresh_batch(self, failed: np.ndarray) -> ChainBatch:
        """The batched ``initial_state``: flooded sites, nothing else."""
        shape = (self.n_realizations, len(self.site_names))
        return ChainBatch(
            flooded=self.flooded_sites(failed),
            isolated=np.zeros(shape, dtype=bool),
            intrusions=np.zeros(shape, dtype=np.int64),
            failed=failed,
        )

    def base_batch(self) -> ChainBatch:
        """The batched ``base_state``: untouched by any hazard."""
        shape = (self.n_realizations, len(self.site_names))
        return ChainBatch(
            flooded=np.zeros(shape, dtype=bool),
            isolated=np.zeros(shape, dtype=bool),
            intrusions=np.zeros(shape, dtype=np.int64),
        )


def classify_batch(ctx: BatchContext, batch: ChainBatch) -> np.ndarray:
    """Severity codes for every realization of a finished batch."""
    return evaluate_batch(
        ctx.architecture, batch.flooded, batch.isolated, batch.intrusions
    )
