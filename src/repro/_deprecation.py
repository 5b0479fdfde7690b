"""One shared home for every public deprecation in the package.

Each deprecated surface registers a :class:`Deprecation` record here --
the *single* source of truth for what is deprecated, what replaces it,
and the release that removes it.  Warning/message text is rendered from
the record, so every public deprecation is guaranteed to name its
removal release (``tests/integration/test_deprecations.py`` asserts
this), and grepping for ``removal_release`` before cutting a major
release yields the full runway in one place.  Release 2.0.0 removed
every surface the 1.x line had deprecated; the 3.0.0 runway holds the
``transport=`` argument of pooled generation, whose value is ignored
since pooled runs ship row blocks through one path.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

__all__ = [
    "Deprecation",
    "register_deprecation",
    "get_deprecation",
    "public_deprecations",
    "deprecation_message",
    "warn_deprecated",
]


@dataclass(frozen=True)
class Deprecation:
    """One deprecated public surface and its removal contract."""

    #: The deprecated surface as users see it (import path or CLI verb).
    name: str
    #: What to use instead (import path, call, or CLI verb).
    replacement: str
    #: The release that deletes the surface, e.g. ``"2.0.0"``.
    removal_release: str

    def message(self, detail: str | None = None) -> str:
        subject = f"{self.name}.{detail}" if detail else self.name
        return (
            f"{subject} is deprecated and will be removed in "
            f"{self.removal_release}; use {self.replacement} instead"
        )


_REGISTRY: dict[str, Deprecation] = {}


def register_deprecation(
    name: str, replacement: str, removal_release: str
) -> Deprecation:
    """Record a public deprecation; returns the record for reuse."""
    record = Deprecation(name, replacement, removal_release)
    _REGISTRY[name] = record
    return record


register_deprecation(
    "EnsembleGenerator.generate(transport=...)",
    "generate(..., n_jobs=...) alone (pooled runs have one block transport)",
    removal_release="3.0.0",
)
register_deprecation(
    "RunController(transport=...)",
    "RunController(..., n_jobs=...) alone (pooled runs have one block transport)",
    removal_release="3.0.0",
)


def get_deprecation(name: str) -> Deprecation:
    return _REGISTRY[name]


def public_deprecations() -> tuple[Deprecation, ...]:
    """Every registered deprecation (the 2.0.0 runway)."""
    return tuple(_REGISTRY[name] for name in sorted(_REGISTRY))


def deprecation_message(name: str, detail: str | None = None) -> str:
    """The canonical user-facing message for a registered deprecation."""
    return _REGISTRY[name].message(detail)


def warn_deprecated(name: str, detail: str | None = None, *, stacklevel: int = 2) -> None:
    """Emit the canonical :class:`DeprecationWarning` for ``name``."""
    warnings.warn(
        deprecation_message(name, detail), DeprecationWarning, stacklevel=stacklevel + 1
    )
