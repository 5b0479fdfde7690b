"""The standard case-study hurricane scenario (Category 2 on Oahu).

The paper simulates a Category-2 hurricane on a realistic planner track and
generates 1000 realizations.  This module pins the reproduction's standard
scenario, seed, and ensemble size so every test, example, and benchmark
analyses the *same* natural-disaster input data, and caches the generated
ensemble in-process (generation takes a few seconds).
"""

from __future__ import annotations

from functools import lru_cache

from repro.geo.coords import GeoPoint
from repro.geo import build_oahu_catalog, build_oahu_region
from repro.hazards.hurricane.ensemble import (
    EnsembleGenerator,
    HurricaneEnsemble,
    HurricaneScenarioSpec,
)
from repro.hazards.hurricane.inundation import Basin, ExtensionParams

DEFAULT_SEED = 20220522
DEFAULT_REALIZATIONS = 1000

#: Oahu's southern shore -- the Ewa plain, Pearl Harbor, and the Honolulu
#: waterfront -- forms one low-lying littoral strip: the coarse-mesh
#: averaging + shoreline extension gives its assets a shared water level,
#: which is why the Honolulu and Waiau control centers flood in exactly
#: the same realizations (paper Section VI-A).
OAHU_SOUTH_SHORE_BASIN = Basin(
    name="south-shore",
    segment_names=("ewa-south-shore", "pearl-harbor", "honolulu-waterfront"),
    membership_distance_km=3.0,
)


def standard_oahu_scenario() -> HurricaneScenarioSpec:
    """Category-2 storm approaching Oahu from the SSE, heading NNW.

    The base track makes landfall just west of Pearl Harbor -- the
    alignment, like historical planning scenarios (e.g. the Makani Pahili
    exercise track), that exposes the populated southern shore.  The track
    offset spread sweeps the ensemble across and past the island, so most
    realizations spare Honolulu and a strong-hit minority floods it.
    """
    return HurricaneScenarioSpec(
        name="oahu-cat2",
        base_landfall=GeoPoint(21.33, -158.06),
        base_heading_deg=335.0,
        track_offset_sd_km=45.0,
        heading_sd_deg=12.0,
        pressure_mean_mb=972.0,
        pressure_sd_mb=7.0,
        pressure_bounds_mb=(956.0, 990.0),
        rmw_median_km=35.0,
        rmw_log_sd=0.22,
        forward_speed_mean_kmh=18.0,
        forward_speed_sd_kmh=5.0,
    )


#: Representative central pressures by Saffir-Simpson category, used by
#: the intensity-sweep ablation.  The case study's Category 2 matches the
#: standard scenario's 972 mb.
CATEGORY_PRESSURE_MB = {1: 985.0, 2: 972.0, 3: 958.0, 4: 945.0}


def oahu_scenario_for_category(category: int) -> HurricaneScenarioSpec:
    """The standard Oahu scenario rescaled to another storm category."""
    if category not in CATEGORY_PRESSURE_MB:
        raise ValueError(
            f"category must be one of {sorted(CATEGORY_PRESSURE_MB)}, "
            f"not {category}"
        )
    base = standard_oahu_scenario()
    pressure = CATEGORY_PRESSURE_MB[category]
    return HurricaneScenarioSpec(
        name=f"oahu-cat{category}",
        base_landfall=base.base_landfall,
        base_heading_deg=base.base_heading_deg,
        track_offset_sd_km=base.track_offset_sd_km,
        heading_sd_deg=base.heading_sd_deg,
        pressure_mean_mb=pressure,
        pressure_sd_mb=base.pressure_sd_mb,
        pressure_bounds_mb=(pressure - 16.0, pressure + 18.0),
        rmw_median_km=base.rmw_median_km,
        rmw_log_sd=base.rmw_log_sd,
        forward_speed_mean_kmh=base.forward_speed_mean_kmh,
        forward_speed_sd_kmh=base.forward_speed_sd_kmh,
    )


def standard_oahu_generator() -> EnsembleGenerator:
    """An ensemble generator wired to the synthetic Oahu geography."""
    return EnsembleGenerator(
        region=build_oahu_region(),
        catalog=build_oahu_catalog(),
        scenario=standard_oahu_scenario(),
        extension_params=ExtensionParams(basins=(OAHU_SOUTH_SHORE_BASIN,)),
    )


@lru_cache(maxsize=1)
def shared_standard_generator() -> EnsembleGenerator:
    """The standard generator, built once per process and shared.

    Construction builds the coastal mesh and inundation mapping, which
    dominates the cost of cheap derived operations like
    ``StudyConfig.cache_key()``.  Generation methods are pure functions
    of their arguments, so sharing one instance is always sound; callers
    must not mutate it.
    """
    return standard_oahu_generator()


@lru_cache(maxsize=4)
def standard_oahu_ensemble(
    count: int = DEFAULT_REALIZATIONS,
    seed: int = DEFAULT_SEED,
    n_jobs: int = 1,
    cache_dir: str | None = None,
    resume: bool = False,
    max_retries: int | None = None,
    task_timeout: float | None = None,
) -> HurricaneEnsemble:
    """The standard 1000-realization ensemble used across the repo.

    Deterministic in (count, seed) and cached in-process; all paper-figure
    benchmarks consume ``standard_oahu_ensemble()`` with the defaults.
    The remaining arguments only change how (and how robustly) the
    ensemble arrives -- worker processes, on-disk reuse, checkpointed
    resume, retry budget, per-task timeout -- never its contents.
    """
    from repro.runtime.controller import RetryPolicy

    retry = RetryPolicy.from_options(max_retries, task_timeout)
    return shared_standard_generator().generate(
        count=count,
        seed=seed,
        n_jobs=n_jobs,
        cache_dir=cache_dir,
        resume=resume,
        retry=retry,
    )
