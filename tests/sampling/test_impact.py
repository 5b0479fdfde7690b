"""Impact layer: load shed, economic loss, exceedance, and EAL."""

from __future__ import annotations

import numpy as np
import pytest

from repro import available_chains, get_chain
from repro.errors import AnalysisError, ConfigurationError
from repro.hazards.fragility import ThresholdFragility
from repro.sampling import (
    ExceedanceCurve,
    ExpectedAnnualLoss,
    LossModel,
    compute_impacts,
)


class TestLossModel:
    def test_loss_combines_energy_and_restoration(self):
        model = LossModel(
            value_of_lost_load_usd_per_mwh=1000.0,
            outage_hours=10.0,
            restoration_cost_usd_per_asset=5.0,
        )
        assert model.loss_usd(shed_mw=2.0, failed_assets=3) == pytest.approx(
            2.0 * 10.0 * 1000.0 + 3 * 5.0
        )

    def test_negative_parameters_are_rejected(self):
        with pytest.raises(ConfigurationError, match="negative"):
            LossModel(outage_hours=-1.0)


class TestExceedanceCurve:
    def test_step_function_from_unit_weights(self):
        curve = ExceedanceCurve.from_samples(
            np.array([1.0, 2.0, 2.0, 5.0]), np.ones(4), "loss_usd"
        )
        assert curve.probability_exceeding(0.0) == pytest.approx(1.0)
        assert curve.probability_exceeding(1.0) == pytest.approx(0.75)
        assert curve.probability_exceeding(2.0) == pytest.approx(0.25)
        assert curve.probability_exceeding(5.0) == pytest.approx(0.0)

    def test_probabilities_are_monotone_nonincreasing(self):
        rng = np.random.default_rng(4)
        curve = ExceedanceCurve.from_samples(
            rng.uniform(0, 100, 200), rng.uniform(0.1, 3.0, 200), "shed_mw"
        )
        probs = np.array(curve.probabilities)
        assert (np.diff(probs) <= 1e-12).all()
        assert probs[-1] == pytest.approx(0.0)

    def test_weights_shift_the_curve(self):
        values = np.array([0.0, 10.0])
        heavy_tail = ExceedanceCurve.from_samples(
            values, np.array([1.0, 3.0]), "loss_usd"
        )
        assert heavy_tail.probability_exceeding(5.0) == pytest.approx(0.75)

    def test_level_at_probability(self):
        curve = ExceedanceCurve.from_samples(
            np.array([1.0, 2.0, 3.0, 4.0]), np.ones(4), "loss_usd"
        )
        assert curve.level_at_probability(0.5) == pytest.approx(2.0)
        assert curve.level_at_probability(0.0) == pytest.approx(4.0)
        with pytest.raises(AnalysisError, match=r"\[0, 1\]"):
            curve.level_at_probability(1.5)

    def test_round_trips_to_dict(self):
        curve = ExceedanceCurve.from_samples(
            np.array([1.0, 2.0]), np.ones(2), "loss_usd"
        )
        payload = curve.to_dict()
        assert payload["metric"] == "loss_usd"
        assert payload["levels"] == [1.0, 2.0]

    def test_rejects_zero_total_weight(self):
        with pytest.raises(AnalysisError, match="positive total weight"):
            ExceedanceCurve.from_samples(np.array([1.0]), np.zeros(1), "x")


class TestExpectedAnnualLoss:
    def test_weighted_mean_annualized_by_event_rate(self):
        eal = ExpectedAnnualLoss.from_samples(
            np.array([100.0, 300.0]), np.array([1.0, 1.0]), 0.5
        )
        assert eal.mean_event_loss_usd == pytest.approx(200.0)
        assert eal.eal_usd == pytest.approx(100.0)
        assert eal.ci_halfwidth_usd > 0.0
        assert eal.to_dict()["eal_usd"] == pytest.approx(100.0)


class TestComputeImpacts:
    def test_impacts_over_a_real_ensemble(self, small_ensemble):
        result = compute_impacts(small_ensemble)
        n = len(small_ensemble)
        assert result.shed_mw.shape == (n,)
        assert result.loss_usd.shape == (n,)
        assert (result.shed_mw >= 0).all()
        assert ((0.0 <= result.served_fraction) & (result.served_fraction <= 1.0)).all()
        # Loss is a deterministic function of shed + failure counts, so
        # zero shed and zero failures means zero loss.
        assert (result.loss_usd >= 0).all()

    def test_exceedance_and_eal_flow_from_the_result(self, small_ensemble):
        result = compute_impacts(small_ensemble)
        curve = result.exceedance("loss_usd")
        assert curve.metric == "loss_usd"
        assert curve.probability_exceeding(-1.0) == pytest.approx(1.0)
        eal = result.expected_annual_loss()
        assert eal.event_rate_per_year == LossModel().event_rate_per_year
        assert eal.mean_event_loss_usd >= 0.0

    def test_unknown_metric_is_rejected(self, small_ensemble):
        with pytest.raises(AnalysisError, match="unknown impact metric"):
            compute_impacts(small_ensemble).exceedance("downtime")

    def test_weights_must_match_the_ensemble(self, small_ensemble):
        with pytest.raises(AnalysisError, match="does not match"):
            compute_impacts(small_ensemble, weights=np.ones(3))


class TestImpactKernel:
    """The kernel's SCADA-on pass against the per-pattern scalar solver."""

    def test_every_pattern_of_the_standard_ensemble_matches(self, standard_ensemble):
        from repro.grid.kernel import GridKernel
        from repro.grid.model import build_oahu_grid
        from repro.grid.storm_impact import damage_pattern_groups
        from tests.network.coupling_reference import reference_grid_impact

        assert len(standard_ensemble) == 1000
        grid = build_oahu_grid()
        kernel = GridKernel(grid)
        failed = standard_ensemble.depth_view() > ThresholdFragility().threshold_m
        codes, inverse = damage_pattern_groups(
            failed, standard_ensemble.asset_names, kernel.bus_names
        )
        assert len(codes) > 1
        for code, (shed, served) in zip(codes.tolist(), kernel.impact_rows(codes)):
            expected_shed, expected_served = reference_grid_impact(
                grid, frozenset(kernel.names_of(code))
            )
            assert shed == pytest.approx(expected_shed, rel=1e-12, abs=0.0)
            assert served == pytest.approx(expected_served, rel=1e-12, abs=0.0)
        result = compute_impacts(standard_ensemble)
        shed_by_code = dict(zip(codes.tolist(), kernel.impact_rows(codes)))
        expected = np.array([shed_by_code[c][0] for c in codes[inverse].tolist()])
        np.testing.assert_array_equal(result.shed_mw, expected)

    def test_load_shed_stage_memoizes_in_the_study_memo(self):
        from repro.core.chain import ChainContext
        from repro.core.threat import PAPER_SCENARIOS
        from repro.obs.observer import Observability, activate
        from repro.sampling import LoadShedStage
        from repro.scada.architectures import get_architecture
        from repro.scada.placement import PLACEMENT_WAIAU
        from tests.network.coupling_reference import reference_grid_impact

        stage = LoadShedStage()
        ctx = ChainContext(get_architecture("2"), PLACEMENT_WAIAU, PAPER_SCENARIOS[0])
        failed = frozenset({"Iwilei Substation", "Honolulu Control Center"})
        obs = Observability()
        with activate(obs):
            for _ in range(2):
                ctx.extras.clear()
                ctx.extras["failed_assets"] = failed
                stage.apply(ctx.base_state(), ctx, None)
        impact = ctx.extras["load_shed"]
        assert impact.out_buses == ("Iwilei Substation",)
        assert (impact.shed_mw, impact.served_fraction) == reference_grid_impact(
            stage.kernel().grid, failed
        )
        assert obs.metrics.counter("pipeline.coupling_cache.miss") == 1
        assert obs.metrics.counter("pipeline.coupling_cache.hit") == 1
        assert not any("cache" in name for name in vars(stage))


class TestTailRiskChain:
    def test_chain_is_registered_with_impact_stages(self):
        assert "tail-risk" in available_chains()
        chain = get_chain("tail-risk")
        names = [stage.name for stage in chain.stages]
        assert "load-shed" in names
        assert "economic-loss" in names
        assert names.index("load-shed") < names.index("economic-loss")
