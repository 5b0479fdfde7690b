"""The axis-product grid builder: many :class:`StudyConfig`\\ s in one call.

A sweep grid is the cross-product of per-field alternatives applied to a
base config::

    configs = sweep_grid(
        StudyConfig(n_realizations=1000),
        configurations=["2", "2-2", "6", "6-6", "6+6+6"],
        scenarios=[s.name for s in PAPER_SCENARIOS],
        placement=["waiau", "kahe"],
    )                                    # 5 x 4 x 2 = 40 studies

Axis keys are :class:`StudyConfig` field names; each value is the
sequence of alternatives for that field.  Two conveniences make the
paper-style grids read naturally:

* a bare string (or a single :class:`ArchitectureSpec` /
  :class:`ThreatScenario`) in a ``configurations`` / ``scenarios`` axis
  means a single-element study, so the example above yields one study
  per (architecture, scenario) cell rather than whole sub-matrices;
* two derived axes cover the remaining paper dimensions:
  ``category`` (Saffir-Simpson 1-4 -> an Oahu generator for that storm
  intensity) and ``threshold`` (inundation failure threshold in
  meters -> a :class:`ThresholdFragility`).

Because ``chain`` is a :class:`StudyConfig` field, it is also a valid
axis: ``sweep_grid(base, chain=["paper", "grid-coupled"])`` compares
threat chains over the *same* shared ensemble (the chain never enters
``cache_key()``), with fragility memos reused across chains whose
hazard prefix is deterministic.

Every cell is built with :meth:`StudyConfig.replace`, so registry-name
typos in any axis raise :class:`ConfigurationError` (listing the
available names) while the grid is being built, not mid-sweep.
"""

from __future__ import annotations

import itertools
from dataclasses import fields as dataclass_fields
from functools import lru_cache
from typing import Sequence

from repro.api import StudyConfig
from repro.errors import ConfigurationError
from repro.geo import build_oahu_catalog, build_oahu_region
from repro.hazards.fragility import ThresholdFragility
from repro.hazards.hurricane.ensemble import EnsembleGenerator
from repro.hazards.hurricane.inundation import ExtensionParams
from repro.hazards.hurricane.standard import (
    CATEGORY_PRESSURE_MB,
    OAHU_SOUTH_SHORE_BASIN,
    oahu_scenario_for_category,
)

#: Axes that derive a StudyConfig field instead of naming one directly.
DERIVED_AXES = ("category", "threshold")

_SINGLETON_AXES = ("configurations", "scenarios")


@lru_cache(maxsize=len(CATEGORY_PRESSURE_MB))
def category_generator(category: int) -> EnsembleGenerator:
    """The standard Oahu generator rescaled to a Saffir-Simpson category.

    Building one constructs the coastal mesh and inundation mapping, so
    each category's generator is built once per process and shared, as
    :func:`~repro.hazards.hurricane.standard.shared_standard_generator`
    is: generation methods are pure functions of their arguments, and
    callers must not mutate the returned object.
    """
    if category not in CATEGORY_PRESSURE_MB:
        raise ConfigurationError(
            f"hurricane category must be one of "
            f"{sorted(CATEGORY_PRESSURE_MB)}, not {category!r}"
        )
    return EnsembleGenerator(
        region=build_oahu_region(),
        catalog=build_oahu_catalog(),
        scenario=oahu_scenario_for_category(category),
        extension_params=ExtensionParams(basins=(OAHU_SOUTH_SHORE_BASIN,)),
    )


def _normalize_axis(name: str, values: Sequence) -> tuple[str, list]:
    """Map one user axis onto (field name, field values)."""
    values = list(values)
    if not values:
        raise ConfigurationError(f"sweep axis {name!r} has no values")
    if name == "category":
        return "generator", [category_generator(c) for c in values]
    if name == "threshold":
        return "fragility", [
            ThresholdFragility(threshold_m=float(t)) for t in values
        ]
    if name in _SINGLETON_AXES:
        # A bare string / spec object means "one-element study": wrap it
        # so each grid cell analyzes exactly that architecture/scenario.
        return name, [
            (v,) if isinstance(v, str) or not isinstance(v, (tuple, list)) else tuple(v)
            for v in values
        ]
    return name, values


def sweep_grid(base: StudyConfig | None = None, **axes: Sequence) -> list[StudyConfig]:
    """Build the cross-product grid of study configs over ``axes``.

    ``base`` supplies every field the axes do not vary (defaults to
    ``StudyConfig()``, the paper's case study).  Axis order follows the
    keyword order, and the product iterates the *last* axis fastest, so
    the grid order is deterministic and reads like nested loops.

    Every ``StudyConfig`` field is an axis -- including the scenario
    catalog's ``region=`` and ``hazard=`` names, so
    ``sweep_grid(region=["oahu", "portolan"], hazard=["hurricane",
    "flood"])`` runs the full matrix while the engine still generates
    each distinct ensemble (by cache key) exactly once.
    """
    base = base or StudyConfig()
    valid = {f.name for f in dataclass_fields(StudyConfig)}
    for name in axes:
        if name not in valid and name not in DERIVED_AXES:
            raise ConfigurationError(
                f"unknown sweep axis {name!r}; axes are StudyConfig fields "
                f"({sorted(valid)}) or derived axes ({sorted(DERIVED_AXES)})"
            )
    if not axes:
        return [base]
    names_values = [_normalize_axis(name, values) for name, values in axes.items()]
    field_names = [name for name, _ in names_values]
    if len(set(field_names)) != len(field_names):
        raise ConfigurationError(
            f"sweep axes collide on the same StudyConfig field: {field_names}"
        )
    grid = []
    for combo in itertools.product(*(values for _, values in names_values)):
        grid.append(base.replace(**dict(zip(field_names, combo))))
    return grid
