"""Unit tests for the fused batched kernels and executor selection.

The exhaustive comparisons here are the ground truth behind the batched
path's bitwise-identity claim: every reachable (flooded, isolated,
intrusions) site pattern is pushed through both the scalar and the
vectorized code, for every paper architecture.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.attacker import WorstCaseAttacker
from repro.core.chain import (
    ClassificationStage,
    CyberAttackStage,
    HazardImpactStage,
    NoOpStage,
    ThreatChain,
)
from repro.core.evaluator import evaluate, evaluate_batch
from repro.core.outcomes import OperationalProfile
from repro.core.pipeline import CompoundThreatAnalysis
from repro.core.states import STATE_ORDER
from repro.core.system_state import SiteStatus, SystemState
from repro.core.threat import PAPER_SCENARIOS, CyberAttackBudget
from repro.errors import AnalysisError, HazardError
from repro.hazards.fragility import LogisticFragility, ThresholdFragility
from repro.io.shared_ensemble import ArrayBackedEnsemble
from repro.scada.architectures import PAPER_CONFIGURATIONS
from repro.scada.placement import PLACEMENT_WAIAU


def _site_patterns(architecture, max_intrusions=None):
    """Every reachable per-site (flooded, isolated, intrusions) grid."""
    per_site = []
    for spec in architecture.sites:
        cap = spec.replicas if max_intrusions is None else min(
            spec.replicas, max_intrusions
        )
        per_site.append(
            [
                (f, i, k)
                for f in (False, True)
                for i in (False, True)
                for k in range(cap + 1)
            ]
        )
    return list(itertools.product(*per_site))


def _arrays(patterns, n_sites):
    flooded = np.zeros((len(patterns), n_sites), dtype=bool)
    isolated = np.zeros((len(patterns), n_sites), dtype=bool)
    intrusions = np.zeros((len(patterns), n_sites), dtype=np.int64)
    for r, pattern in enumerate(patterns):
        for s, (f, i, k) in enumerate(pattern):
            flooded[r, s] = f
            isolated[r, s] = i
            intrusions[r, s] = k
    return flooded, isolated, intrusions


def _state(architecture, pattern):
    sites = tuple(
        SiteStatus(
            asset_name=f"site-{s}",
            spec=spec,
            flooded=f,
            isolated=i,
            intrusions=k,
        )
        for s, (spec, (f, i, k)) in enumerate(zip(architecture.sites, pattern))
    )
    return SystemState(architecture, sites)


@pytest.mark.parametrize(
    "architecture", PAPER_CONFIGURATIONS, ids=lambda a: a.name
)
def test_evaluate_batch_matches_scalar_exhaustively(architecture):
    patterns = _site_patterns(architecture)
    codes = evaluate_batch(
        architecture, *_arrays(patterns, len(architecture.sites))
    )
    for r, pattern in enumerate(patterns):
        expected = evaluate(_state(architecture, pattern))
        assert STATE_ORDER[int(codes[r])] is expected, pattern


@pytest.mark.parametrize(
    "architecture", PAPER_CONFIGURATIONS, ids=lambda a: a.name
)
@pytest.mark.parametrize(
    "budget",
    [s.budget for s in PAPER_SCENARIOS]
    + [CyberAttackBudget(intrusions=3, isolations=2)],
    ids=lambda b: f"i{b.intrusions}-l{b.isolations}",
)
def test_attack_batch_matches_scalar_exhaustively(architecture, budget):
    attacker = WorstCaseAttacker()
    # Cap enumerated pre-attack intrusions to keep the grid small; the
    # interesting transitions all live at low counts.
    patterns = _site_patterns(architecture, max_intrusions=2)
    flooded, isolated, intrusions = _arrays(patterns, len(architecture.sites))
    out_iso, out_intr = attacker.attack_batch(
        architecture, flooded, isolated, intrusions, budget
    )
    for r, pattern in enumerate(patterns):
        attacked = attacker.attack(_state(architecture, pattern), budget, None)
        for s, site in enumerate(attacked.sites):
            assert out_iso[r, s] == site.isolated, (pattern, s)
            assert out_intr[r, s] == site.intrusions, (pattern, s)


# ----------------------------------------------------------------------
# Executor selection and fallback
# ----------------------------------------------------------------------
def _tiny_ensemble(n=6, n_assets=4, seed=3):
    rng = np.random.default_rng(seed)
    names = [f"asset-{i}" for i in range(n_assets)]
    depths = rng.uniform(0.0, 1.2, size=(n, n_assets))
    return ArrayBackedEnsemble(
        scenario_name="tiny", depths=depths, asset_names=names, seed=seed
    )


def test_stochastic_fragility_batches_bitwise_identically(small_ensemble):
    """LogisticFragility runs batched now, under the RNG-draw contract."""
    analysis = CompoundThreatAnalysis(
        small_ensemble, fragility=LogisticFragility(), seed=5
    )
    bctx = analysis._batch_context(
        PAPER_CONFIGURATIONS[0], PLACEMENT_WAIAU, PAPER_SCENARIOS[0]
    )
    plan = analysis.chain.batch_plan(bctx)
    assert plan.ok
    # One draw per asset per realization, charged to the hazard stage.
    assert plan.stage_draws[0] == len(small_ensemble.asset_names)
    assert plan.total_draws == len(small_ensemble.asset_names)
    forced = CompoundThreatAnalysis(
        small_ensemble, fragility=LogisticFragility(), seed=5, batch=True
    )
    oracle = CompoundThreatAnalysis(
        small_ensemble, fragility=LogisticFragility(), seed=5, batch=False
    )
    args = (PAPER_CONFIGURATIONS[0], PLACEMENT_WAIAU, PAPER_SCENARIOS[0])
    assert forced.run(*args).counts == oracle.run(*args).counts


def test_fragility_without_contract_falls_back(small_ensemble):
    """A model that disclaims batch_sampling keeps the scalar loop."""

    class LegacySampler(LogisticFragility):
        batch_sampling = False

    analysis = CompoundThreatAnalysis(
        small_ensemble, fragility=LegacySampler(), seed=5
    )
    bctx = analysis._batch_context(
        PAPER_CONFIGURATIONS[0], PLACEMENT_WAIAU, PAPER_SCENARIOS[0]
    )
    plan = analysis.chain.batch_plan(bctx)
    assert not plan.ok
    assert plan.stage == "fragility"
    assert "batch-sampling contract" in plan.reason
    # Auto mode silently uses the scalar loop...
    profile = analysis.run(
        PAPER_CONFIGURATIONS[0], PLACEMENT_WAIAU, PAPER_SCENARIOS[0]
    )
    assert profile.total == len(small_ensemble)
    # ...and forcing batch refuses loudly, naming the stage's reason.
    forced = CompoundThreatAnalysis(
        small_ensemble, fragility=LegacySampler(), seed=5, batch=True
    )
    with pytest.raises(AnalysisError, match="unbatchable"):
        forced.run(PAPER_CONFIGURATIONS[0], PLACEMENT_WAIAU, PAPER_SCENARIOS[0])


def test_silent_fallback_emits_counter_and_reason(small_ensemble):
    """Auto-mode scalar fallbacks are observable: counter, reason, event."""
    from repro.obs import Observability, activate

    class LegacySampler(LogisticFragility):
        batch_sampling = False

    obs = Observability()
    with activate(obs):
        analysis = CompoundThreatAnalysis(
            small_ensemble, fragility=LegacySampler(), seed=5
        )
        analysis.run(PAPER_CONFIGURATIONS[0], PLACEMENT_WAIAU, PAPER_SCENARIOS[0])
    counters = obs.metrics.snapshot()["counters"]
    assert counters["batch.fallback"] == 1
    assert counters["batch.fallback.reason.stage.fragility"] == 1
    events = [e for e in obs.events.to_list() if e["kind"] == "batch.fallback"]
    assert len(events) == 1
    assert "batch-sampling contract" in events[0]["reason"]


def test_custom_stage_without_batch_support_falls_back(small_ensemble):
    class TracingStage:
        name = "tracing"
        deterministic = True

        def apply(self, state, ctx, rng):
            return state

    chain = ThreatChain(
        name="custom-tracing",
        stages=(HazardImpactStage(), TracingStage(), ClassificationStage()),
    )
    auto = CompoundThreatAnalysis(small_ensemble, chain=chain)
    oracle = CompoundThreatAnalysis(small_ensemble, chain=chain, batch=False)
    args = (PAPER_CONFIGURATIONS[1], PLACEMENT_WAIAU, PAPER_SCENARIOS[1])
    assert auto.run(*args).counts == oracle.run(*args).counts
    with pytest.raises(AnalysisError, match="unbatchable"):
        CompoundThreatAnalysis(small_ensemble, chain=chain, batch=True).run(*args)


def test_scalar_only_stage_is_observed_on_the_adapter(small_ensemble):
    """The adapter records the same spans the executor does, plus why."""
    from repro.obs import Observability, activate

    class TracingStage:
        name = "tracing"
        deterministic = True

        def apply(self, state, ctx, rng):
            return state

    chain = ThreatChain(
        name="custom-observed",
        stages=(HazardImpactStage(), TracingStage(), ClassificationStage()),
    )
    obs = Observability()
    with activate(obs):
        CompoundThreatAnalysis(small_ensemble, chain=chain).run(
            PAPER_CONFIGURATIONS[0], PLACEMENT_WAIAU, PAPER_SCENARIOS[0]
        )
    (cell,) = obs.tracer.roots
    assert cell.name == "analysis.run"
    assert cell.meta["executor"] == "scalar"
    assert [child.name for child in cell.children] == [
        "pipeline.stage.fragility",
        "pipeline.stage.tracing",
        "pipeline.stage.classification",
    ]
    counters = obs.metrics.snapshot()["counters"]
    assert counters["batch.fallback.reason.stage.tracing"] == 1
    assert counters["pipeline.realizations"] == len(small_ensemble)
    assert "pipeline.batched_runs" not in counters


def test_ensemble_without_depth_grid_falls_back():
    class ListEnsemble:
        """Realizations only -- no depth grid to batch over."""

        def __init__(self, inner):
            self._inner = inner

        def __len__(self):
            return len(self._inner)

        def __iter__(self):
            return iter(self._inner)

        def __getitem__(self, index):
            return self._inner[index]

    inner = _tiny_ensemble()
    wrapped = CompoundThreatAnalysis(ListEnsemble(inner))
    args = (PAPER_CONFIGURATIONS[0], PLACEMENT_WAIAU, PAPER_SCENARIOS[3])
    direct = CompoundThreatAnalysis(inner, batch=True)
    assert wrapped.run(*args).counts == direct.run(*args).counts
    with pytest.raises(AnalysisError, match="depth grid"):
        CompoundThreatAnalysis(ListEnsemble(inner), batch=True).run(*args)


def test_noop_chain_classifies_base_state_on_both_paths():
    ensemble = _tiny_ensemble()
    chain = ThreatChain(name="custom-noop", stages=(NoOpStage(),))
    args = (PAPER_CONFIGURATIONS[2], PLACEMENT_WAIAU, PAPER_SCENARIOS[0])
    batched = CompoundThreatAnalysis(ensemble, chain=chain, batch=True).run(*args)
    oracle = CompoundThreatAnalysis(ensemble, chain=chain, batch=False).run(*args)
    assert batched.counts == oracle.counts


def test_batched_matrix_shares_one_failure_matrix_across_cells():
    calls = 0

    class CountingThreshold(ThresholdFragility):
        def failure_matrix(self, depths):
            nonlocal calls
            calls += 1
            return super().failure_matrix(depths)

    ensemble = _tiny_ensemble()
    analysis = CompoundThreatAnalysis(
        ensemble, fragility=CountingThreshold(), batch=True
    )
    analysis.run_matrix(
        list(PAPER_CONFIGURATIONS), PLACEMENT_WAIAU, list(PAPER_SCENARIOS)
    )
    assert calls == 1


def test_attack_stage_with_explicit_attacker_batches():
    ensemble = _tiny_ensemble()
    chain = ThreatChain(
        name="custom-explicit-attacker",
        stages=(
            HazardImpactStage(),
            CyberAttackStage(attacker=WorstCaseAttacker()),
            ClassificationStage(),
        ),
    )
    args = (PAPER_CONFIGURATIONS[4], PLACEMENT_WAIAU, PAPER_SCENARIOS[3])
    batched = CompoundThreatAnalysis(ensemble, chain=chain, batch=True).run(*args)
    oracle = CompoundThreatAnalysis(ensemble, chain=chain, batch=False).run(*args)
    assert batched.counts == oracle.counts

    class NamedSiteAttacker:
        """Deterministic, no attack_batch, and reads site names: the
        per-pattern replay must hand it the placed names."""

        name = "named-site"
        deterministic = True

        def attack(self, state, budget, rng=None):
            for index, site in enumerate(state.sites):
                if site.asset_name == PLACEMENT_WAIAU.primary and not site.flooded:
                    state = state.with_isolation(index)
            return WorstCaseAttacker().attack(state, budget, rng)

    custom = ThreatChain(
        name="custom-deterministic-attacker",
        stages=(
            HazardImpactStage(),
            CyberAttackStage(attacker=NamedSiteAttacker()),
            ClassificationStage(),
        ),
    )
    for architecture in PAPER_CONFIGURATIONS:
        for scenario in PAPER_SCENARIOS:
            cell = (architecture, PLACEMENT_WAIAU, scenario)
            forced = CompoundThreatAnalysis(ensemble, chain=custom, batch=True)
            reference = CompoundThreatAnalysis(ensemble, chain=custom, batch=False)
            bctx = forced._batch_context(*cell)
            codes = custom.run_batch(bctx, None)
            expected = custom.run_scalar(
                reference._context(*cell), ensemble, None
            )
            assert codes.tolist() == expected.tolist()
            assert forced.run(*cell).counts == reference.run(*cell).counts


# ----------------------------------------------------------------------
# Supporting kernels
# ----------------------------------------------------------------------
def test_from_state_codes_rejects_out_of_range():
    with pytest.raises(AnalysisError, match="state code"):
        OperationalProfile.from_state_codes(np.array([0, 1, 7]))


def test_from_state_codes_counts():
    profile = OperationalProfile.from_state_codes(np.array([0, 0, 2, 3]))
    assert profile.count(STATE_ORDER[0]) == 2
    assert profile.count(STATE_ORDER[2]) == 1
    assert profile.count(STATE_ORDER[3]) == 1


def test_failure_matrix_requires_rng_for_probabilistic_models():
    depths = np.array([[0.5, 0.6]])
    with pytest.raises(HazardError, match="rng"):
        LogisticFragility().failure_matrix(depths)
    # Threshold stays a pure comparison.
    mask = ThresholdFragility(threshold_m=0.55).failure_matrix(depths)
    assert mask.tolist() == [[False, True]]
