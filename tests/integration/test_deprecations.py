"""The deprecation runway: one registry, every warning names it.

Every public deprecation must be registered in :mod:`repro._deprecation`
with a concrete removal release, and the deprecated surfaces must emit
the registry's message -- so nothing can be deprecated "informally" and
then break users without ever telling them when.
"""

from __future__ import annotations

import re
import warnings

import numpy as np
import pytest

from repro._deprecation import (
    Deprecation,
    deprecation_message,
    get_deprecation,
    public_deprecations,
    warn_deprecated,
)

RELEASE = re.compile(r"^\d+\.\d+\.\d+$")


class TestRegistry:
    def test_every_public_deprecation_names_its_removal_release(self):
        for record in public_deprecations():
            assert RELEASE.match(record.removal_release), (
                f"{record.name} must pin an X.Y.Z removal release, got "
                f"{record.removal_release!r}"
            )
            assert record.replacement, f"{record.name} must name a replacement"
            assert record.removal_release in record.message()

    def test_the_2_0_0_runway_is_cashed(self):
        """Every surface deprecated for 2.0.0 is gone, with its record."""
        import repro
        from repro.cli import main
        from repro.core import batch as batch_mod

        assert repro.__version__ == "2.0.0"
        assert not [
            r for r in public_deprecations() if r.removal_release == "2.0.0"
        ]
        with pytest.raises(ModuleNotFoundError):
            import repro.geo.oahu  # noqa: F401
        assert not hasattr(batch_mod, "attack_batch_fallback")
        with pytest.raises(SystemExit) as exit_info:
            main(["analyze"])
        assert exit_info.value.code == 2

    def test_message_renders_subject_replacement_and_release(self):
        record = Deprecation("old.thing", "new.thing", "9.0.0")
        message = record.message("attr")
        assert message.startswith("old.thing.attr is deprecated")
        assert "9.0.0" in message
        assert "new.thing" in message

    def test_warn_deprecated_emits_the_registry_message(self, monkeypatch):
        import repro._deprecation as registry

        monkeypatch.setitem(
            registry._REGISTRY,
            "repro.old_module",
            Deprecation("repro.old_module", "repro.new_module", "9.0.0"),
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            warn_deprecated("repro.old_module", detail="helper")
        assert len(caught) == 1
        assert issubclass(caught[0].category, DeprecationWarning)
        assert str(caught[0].message) == deprecation_message(
            "repro.old_module", "helper"
        )
        assert get_deprecation("repro.old_module").removal_release == "9.0.0"


class TestTransportRunway:
    def test_transport_warns_naming_3_0_0_and_changes_no_bits(self):
        from repro.hazards.hurricane.standard import standard_oahu_generator

        generator = standard_oahu_generator()
        with pytest.warns(DeprecationWarning) as caught:
            pickled = generator.generate(count=20, seed=3, n_jobs=2, transport="pickle")
        message = deprecation_message("EnsembleGenerator.generate(transport=...)")
        assert [str(w.message) for w in caught] == [message]
        assert "3.0.0" in message
        plain = generator.generate(count=20, seed=3)
        assert np.array_equal(pickled.depth_matrix(), plain.depth_matrix())
        assert np.array_equal(pickled.parameter_view(), plain.parameter_view())

    def test_run_controller_transport_warns_too(self):
        from repro.hazards.hurricane.standard import standard_oahu_generator
        from repro.runtime.controller import RunController

        with pytest.warns(DeprecationWarning, match="3.0.0"):
            RunController(standard_oahu_generator(), 4, 1, transport="inplace")
