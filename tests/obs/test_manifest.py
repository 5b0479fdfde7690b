"""Run manifests: schema golden, safe writers, the human report."""

from __future__ import annotations

import json
import warnings

import pytest

from repro.obs import (
    MANIFEST_REQUIRED_KEYS,
    MANIFEST_SCHEMA_VERSION,
    Observability,
    ObservabilityWriteWarning,
    build_run_manifest,
    format_run_report,
    write_json_artifact,
    write_run_manifest,
)


def _sample_manifest() -> dict:
    obs = Observability()
    with obs.span("run_study"):
        with obs.span("ensemble.generate"):
            obs.inc("runtime.realizations_completed", 10)
            obs.observe("runtime.realization_s", 0.001)
        obs.event("retry", realization=3, attempt=1, error="WorkerCrashError")
    return build_run_manifest(
        config_hash="abc123",
        seed=20220522,
        n_realizations=10,
        configurations=["2", "6+6+6"],
        scenarios=["hurricane"],
        placement="Honolulu + Waiau + DRFortress",
        chain={
            "name": "paper",
            "stages": [
                {"name": "fragility", "type": "HazardImpactStage", "deterministic": True},
                {"name": "cyberattack", "type": "CyberAttackStage", "deterministic": True},
                {
                    "name": "classification",
                    "type": "ClassificationStage",
                    "deterministic": True,
                },
            ],
        },
        obs=obs,
        wall_clock_s=1.5,
    )


class TestManifestSchema:
    def test_golden_key_set(self):
        manifest = _sample_manifest()
        assert set(manifest) == MANIFEST_REQUIRED_KEYS

    def test_identity_and_versions(self):
        import numpy
        import repro

        manifest = _sample_manifest()
        assert manifest["schema_version"] == MANIFEST_SCHEMA_VERSION
        assert manifest["kind"] == "repro.run_manifest"
        assert manifest["seed"] == 20220522
        assert manifest["versions"]["repro"] == repro.__version__
        assert manifest["versions"]["numpy"] == numpy.__version__

    def test_behavior_sections_are_populated(self):
        manifest = _sample_manifest()
        assert manifest["stages"]["run_study"] > 0
        assert manifest["stages"]["ensemble.generate"] > 0
        counters = manifest["metrics"]["counters"]
        assert counters["runtime.realizations_completed"] == 10
        assert manifest["events"][0]["kind"] == "retry"
        assert manifest["events_dropped"] == 0

    def test_manifest_is_json_serializable(self):
        json.dumps(_sample_manifest())

    def test_disabled_observer_yields_empty_telemetry(self):
        from repro.obs import NULL_OBSERVER

        manifest = build_run_manifest(
            config_hash="abc",
            seed=0,
            n_realizations=1,
            configurations=["2"],
            scenarios=["hurricane"],
            placement="p",
            obs=NULL_OBSERVER,
            wall_clock_s=0.1,
        )
        assert set(manifest) == MANIFEST_REQUIRED_KEYS
        assert manifest["stages"] == {}
        assert manifest["metrics"] == {}
        assert manifest["events"] == []


class TestSafeWriters:
    def test_write_and_read_back(self, tmp_path):
        manifest = _sample_manifest()
        path = tmp_path / "nested" / "run_manifest.json"
        written = write_run_manifest(path, manifest)
        assert written == path
        assert json.loads(path.read_text()) == manifest

    def test_unwritable_destination_warns_and_continues(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("a file where a directory is needed")
        target = blocker / "run_manifest.json"
        with pytest.warns(ObservabilityWriteWarning, match="run manifest"):
            written = write_run_manifest(target, _sample_manifest())
        assert written is None  # warned, did not raise

    def test_unserializable_payload_warns_and_continues(self, tmp_path):
        target = tmp_path / "metrics.json"
        with pytest.warns(ObservabilityWriteWarning, match="metrics"):
            written = write_json_artifact(target, {"bad": object()}, "metrics")
        assert written is None
        assert not target.exists()

    def test_successful_write_emits_no_warning(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            write_run_manifest(tmp_path / "m.json", _sample_manifest())


class TestRunReport:
    def test_report_mentions_stages_counters_and_events(self):
        report = format_run_report(_sample_manifest())
        assert "Run report" in report
        assert "config hash:    abc123" in report
        assert "chain:          paper (fragility -> cyberattack -> classification)" in report
        assert "ensemble.generate" in report
        assert "runtime.realizations_completed" in report
        assert "runtime.realization_s" in report
        assert "retry" in report

    def test_report_handles_empty_telemetry(self):
        from repro.obs import NULL_OBSERVER

        manifest = build_run_manifest(
            config_hash="abc",
            seed=0,
            n_realizations=1,
            configurations=["2"],
            scenarios=["hurricane"],
            placement="p",
            obs=NULL_OBSERVER,
            wall_clock_s=0.1,
        )
        report = format_run_report(manifest)
        assert "Run report" in report
        assert "Counters" not in report

    def test_report_calls_out_batch_fallbacks_with_reasons(self):
        obs = Observability()
        with obs.span("run_study"):
            obs.inc("batch.fallback", 3)
            obs.inc("batch.fallback.reason.stage.fragility", 2)
            obs.inc("batch.fallback.reason.no_depth_grid", 1)
        manifest = build_run_manifest(
            config_hash="abc",
            seed=0,
            n_realizations=1,
            configurations=["2"],
            scenarios=["hurricane"],
            placement="p",
            obs=obs,
            wall_clock_s=0.1,
        )
        report = format_run_report(manifest)
        assert "Batch fallbacks: 3 cell(s) used the per-realization loop:" in report
        assert "stage.fragility: 2" in report
        assert "no_depth_grid: 1" in report

    def test_report_shows_the_coupling_memo_split(self):
        obs = Observability()
        with obs.span("run_study"):
            obs.inc("pipeline.coupling_cache.hit", 30)
            obs.inc("pipeline.coupling_cache.miss", 10)
        manifest = build_run_manifest(
            config_hash="abc",
            seed=0,
            n_realizations=1,
            configurations=["2"],
            scenarios=["hurricane"],
            placement="p",
            obs=obs,
            wall_clock_s=0.1,
        )
        report = format_run_report(manifest)
        assert "Coupling memo: 30 hit / 10 miss (75.0% of damage-pattern lookups hit)" in report
        assert "Coupling memo" not in format_run_report(_sample_manifest())

    def test_report_omits_fallback_callout_when_none(self):
        report = format_run_report(_sample_manifest())
        assert "Batch fallbacks" not in report
