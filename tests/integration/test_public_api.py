"""The public API surface: imports, exports, and the README example."""

from __future__ import annotations

import pytest


class TestTopLevelExports:
    def test_all_names_resolve(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        import repro

        assert repro.__version__ == "2.0.0"

    def test_subpackage_exports_resolve(self):
        import repro.bft as bft
        import repro.core as core
        import repro.geo as geo
        import repro.grid as grid
        import repro.hazards as hazards
        import repro.network as network
        import repro.scada as scada
        import repro.siting as siting

        for module in (core, geo, grid, hazards, network, scada, siting, bft):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"


class TestReadmeQuickstart:
    def test_quickstart_snippet_runs(self, standard_ensemble):
        # The exact snippet from README.md / the package docstring.
        from repro import (
            CompoundThreatAnalysis,
            PAPER_CONFIGURATIONS,
            PAPER_SCENARIOS,
            PLACEMENT_WAIAU,
            format_matrix_report,
        )

        analysis = CompoundThreatAnalysis(standard_ensemble)
        matrix = analysis.run_matrix(
            PAPER_CONFIGURATIONS, PLACEMENT_WAIAU, PAPER_SCENARIOS
        )
        report = format_matrix_report(matrix)
        assert "Scenario: hurricane" in report
        assert "6+6+6" in report

    def test_profile_accessors_from_docs(self, standard_ensemble):
        from repro import (
            CompoundThreatAnalysis,
            OperationalState,
            PLACEMENT_WAIAU,
            get_architecture,
            get_scenario,
        )

        analysis = CompoundThreatAnalysis(standard_ensemble)
        profile = analysis.run(
            get_architecture("6+6+6"),
            PLACEMENT_WAIAU,
            get_scenario("hurricane+intrusion+isolation"),
        )
        low, high = profile.confidence_interval(OperationalState.GREEN)
        assert low <= profile.probability(OperationalState.GREEN) <= high
        assert 0.0 <= profile.expected_availability() <= 1.0


class TestCliEntryPoint:
    def test_module_entry_point_exists(self):
        import repro.__main__  # noqa: F401 - import is the test

    def test_parser_builds(self):
        from repro.cli import build_parser

        parser = build_parser()
        subcommands = {
            "ensemble", "run", "figures", "siting",
            "bft-demo", "grid-impact", "timeline", "earthquake",
        }
        actions = [a for a in parser._actions if hasattr(a, "choices") and a.choices]
        assert subcommands <= set(actions[0].choices)
