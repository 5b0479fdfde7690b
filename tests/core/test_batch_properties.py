"""Property test: the batched executor equals the scalar adapter.

The batched path's contract is *bitwise identity* -- not statistical
agreement -- with the whole-cell scalar adapter (``batch=False``), which
walks every realization through the stages' scalar ``apply``.  Hypothesis
drives randomized fragility thresholds, attack budgets, asset subsets,
and depth grids through every registered preset chain, both placements,
and every paper architecture, comparing element-wise severity codes and
the aggregated profiles.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import StudyConfig
from repro.core.chain import available_chains, get_chain
from repro.core.pipeline import CompoundThreatAnalysis
from repro.core.states import STATE_ORDER
from repro.core.threat import CyberAttackBudget, ThreatScenario
from repro.geo import build_oahu_catalog
from repro.hazards.fragility import ThresholdFragility
from repro.io.shared_ensemble import ArrayBackedEnsemble
from repro.scada.architectures import PAPER_CONFIGURATIONS
from repro.scada.placement import PLACEMENT_KAHE, PLACEMENT_WAIAU

CATALOG_NAMES = build_oahu_catalog().names
PLACEMENTS = {"waiau": PLACEMENT_WAIAU, "kahe": PLACEMENT_KAHE}
N_REALIZATIONS = 12


def _ensemble(depth_seed: int, n_assets: int) -> ArrayBackedEnsemble:
    """A randomized ensemble over a prefix of the real asset catalog.

    Shorter prefixes drop placed control sites from the hazard data,
    exercising the never-floods column mapping on both executors.
    """
    names = CATALOG_NAMES[:n_assets]
    rng = np.random.default_rng(depth_seed)
    depths = rng.uniform(0.0, 1.4, size=(N_REALIZATIONS, len(names)))
    return ArrayBackedEnsemble(
        scenario_name="property", depths=depths, asset_names=list(names), seed=0
    )


@settings(max_examples=30, deadline=None)
@given(
    depth_seed=st.integers(min_value=0, max_value=2**31),
    n_assets=st.integers(min_value=1, max_value=len(CATALOG_NAMES)),
    threshold=st.floats(min_value=0.0, max_value=1.5, allow_nan=False),
    intrusions=st.integers(min_value=0, max_value=8),
    isolations=st.integers(min_value=0, max_value=4),
    chain_name=st.sampled_from(available_chains()),
    placement_name=st.sampled_from(sorted(PLACEMENTS)),
    arch_index=st.integers(min_value=0, max_value=len(PAPER_CONFIGURATIONS) - 1),
)
def test_batched_equals_per_realization(
    depth_seed,
    n_assets,
    threshold,
    intrusions,
    isolations,
    chain_name,
    placement_name,
    arch_index,
):
    ensemble = _ensemble(depth_seed, n_assets)
    placement = PLACEMENTS[placement_name]
    architecture = PAPER_CONFIGURATIONS[arch_index]
    scenario = ThreatScenario(
        "property",
        CyberAttackBudget(intrusions=intrusions, isolations=isolations),
    )
    fragility = ThresholdFragility(threshold_m=threshold)

    oracle = CompoundThreatAnalysis(
        ensemble, fragility=fragility, chain=chain_name, batch=False
    )
    batched = CompoundThreatAnalysis(
        ensemble, fragility=fragility, chain=chain_name, batch=True
    )

    # Element-wise severity codes, in ensemble order.  The adapter runs
    # without precomputed failed sets, so every realization runs its own
    # fragility pass, independent of the batched failure matrix.
    chain = get_chain(chain_name)
    bctx = batched._batch_context(architecture, placement, scenario)
    assert bctx is not None and chain.batch_plan(bctx).ok
    codes = chain.run_batch(bctx, None)
    expected = chain.run_scalar(
        oracle._context(architecture, placement, scenario),
        ensemble,
        np.random.default_rng(0),
    )
    for i in range(len(ensemble)):
        assert int(expected[i]) == int(codes[i]), (
            f"realization {i}: scalar {STATE_ORDER[int(expected[i])]} != "
            f"batched {STATE_ORDER[int(codes[i])]}"
        )

    # And the aggregated profiles through the public entry point.
    profile_oracle = oracle.run(architecture, placement, scenario)
    profile_batched = batched.run(architecture, placement, scenario)
    assert profile_oracle.counts == profile_batched.counts


@settings(max_examples=10, deadline=None)
@given(
    depth_seed=st.integers(min_value=0, max_value=2**31),
    threshold=st.floats(min_value=0.0, max_value=1.5, allow_nan=False),
)
def test_study_config_batch_toggle_is_bitwise_identical(depth_seed, threshold):
    """The run_study-level toggle: batch=False and batch=True agree."""
    from repro.api import run_study

    ensemble = _ensemble(depth_seed, len(CATALOG_NAMES))
    base = StudyConfig(
        ensemble=ensemble,
        fragility=ThresholdFragility(threshold_m=threshold),
        observability=False,
    )
    forced = run_study(base.replace(batch=True))
    oracle = run_study(base.replace(batch=False))
    for scenario in forced.matrix.scenario_names:
        for arch in forced.matrix.architecture_names:
            assert (
                forced.matrix.get(scenario, arch).counts
                == oracle.matrix.get(scenario, arch).counts
            )
