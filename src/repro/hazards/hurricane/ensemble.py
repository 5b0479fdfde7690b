"""Monte Carlo hurricane ensembles (the paper's 1000 realizations).

The paper generates 1000 ADCIRC realizations of a Category-2 hurricane on a
planner-supplied track and records the peak inundation at each power asset.
This module reproduces that pipeline: a base scenario (landfall, heading,
intensity) is perturbed per realization -- track offset, heading, central
pressure, storm size, forward speed -- the surge solver produces shoreline
WSE, and the inundation mapper turns it into per-asset depths.

Generation is split into two deterministic passes: a serial parameter pass
drawing every realization's storm parameters from the single main rng, and
a realization pass in which realization ``i``'s coarse-mesh dropout draws
are the stream ``np.random.SeedSequence(seed).spawn(count)[i]`` seeds
(replayed for a whole block at once by
:class:`~repro.runtime.streams.SpawnedStreams`).  Because no stream is
shared across realizations in the second pass, the fault-tolerant run
controller (:mod:`repro.runtime.controller`) parallelizes it over worker
processes (``n_jobs``) with bit-identical output for any worker count --
including across worker retries, pool rebuilds, and checkpointed resumes
-- and ensembles can round-trip through the on-disk cache (``cache_dir``,
see :mod:`repro.io.ensemble_cache`) without drift.

Both passes hand over columns.  The parameter pass
(:meth:`EnsembleGenerator.sample_parameter_block`) returns the (R, 7)
:data:`PARAM_COLUMNS` matrix from one normal matrix in the scalar draw
order.  The realization pass has one kernel,
:meth:`EnsembleGenerator.realize_block`: a block of parameter rows and
their dropout draws goes through track points, track columns, the surge
peak on the mesh nodes an asset depth reads, the dropout mask and
shoreline post-processing together, to an (R, A) depth block, in blocks
of :attr:`EnsembleGenerator.block_rows` rows.  A row's bits do not
depend on the block it sits in, so :meth:`EnsembleGenerator.realize` --
the scalar reference, drawing from the ``Generator`` it is given -- is
the same kernel on a block of one row.  :class:`HurricaneEnsemble` holds
the depth matrix and the parameter matrix; realization objects are built
only when someone asks for one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.errors import HazardError
from repro.geo.catalog import AssetCatalog
from repro.geo.coords import GeoPoint, destination_latlon, destination_point
from repro.geo.region import CoastalRegion
from repro.hazards.columnar import ArrayBackedEnsemble
from repro.hazards.fragility import FragilityModel, ThresholdFragility
from repro.hazards.hurricane.inundation import ExtensionParams, InundationField, InundationMapper
from repro.hazards.hurricane.mesh import build_coastal_mesh
from repro.hazards.hurricane.surge import SurgeModel, SurgeModelParams, block_rows
from repro.hazards.hurricane.track import (
    LEAD_HOURS,
    TRAIL_HOURS,
    StormTrack,
    linear_track_points,
    sample_times,
    synthesize_linear_track,
)

if TYPE_CHECKING:  # runtime imports lazily inside generate() (no cycle)
    from repro.runtime.controller import RetryPolicy
    from repro.runtime.faults import FaultPlan


#: Cache-sized surge steps per generation block (docs/performance.md,
#: "Block generation").
SURGE_STEPS_PER_BLOCK = 8


@dataclass(frozen=True)
class HurricaneScenarioSpec:
    """The base storm and its per-realization perturbation magnitudes."""

    name: str
    base_landfall: GeoPoint
    base_heading_deg: float
    track_offset_sd_km: float = 45.0
    heading_sd_deg: float = 12.0
    pressure_mean_mb: float = 972.0
    pressure_sd_mb: float = 7.0
    pressure_bounds_mb: tuple[float, float] = (956.0, 990.0)
    rmw_median_km: float = 30.0
    rmw_log_sd: float = 0.30
    forward_speed_mean_kmh: float = 18.0
    forward_speed_sd_kmh: float = 5.0
    forward_speed_bounds_kmh: tuple[float, float] = (8.0, 35.0)

    def __post_init__(self) -> None:
        if min(
            self.track_offset_sd_km,
            self.heading_sd_deg,
            self.pressure_sd_mb,
            self.rmw_log_sd,
            self.forward_speed_sd_kmh,
        ) < 0:
            raise HazardError("perturbation magnitudes cannot be negative")
        lo, hi = self.pressure_bounds_mb
        if not lo < hi:
            raise HazardError("pressure bounds must be an increasing pair")


@dataclass(frozen=True)
class StormParameters:
    """One realization's sampled storm parameters."""

    landfall: GeoPoint
    heading_deg: float
    central_pressure_mb: float
    rmw_km: float
    forward_speed_kmh: float
    track_offset_km: float

    def to_track(self, name: str) -> StormTrack:
        return synthesize_linear_track(
            name=name,
            landfall=self.landfall,
            heading_deg=self.heading_deg,
            forward_speed_kmh=self.forward_speed_kmh,
            central_pressure_mb=self.central_pressure_mb,
            rmw_km=self.rmw_km,
        )


@dataclass(frozen=True)
class HurricaneRealization:
    """One hurricane outcome: storm parameters plus asset inundation."""

    index: int
    params: StormParameters
    inundation: InundationField

    def depth_at(self, asset_name: str) -> float:
        return self.inundation.depth_at(asset_name)

    def failed_assets(
        self,
        fragility: FragilityModel | None = None,
        rng: np.random.Generator | None = None,
    ) -> frozenset[str]:
        model = fragility or ThresholdFragility()
        return model.failed_assets(self.inundation.depths_m, rng)


#: The storm-parameter columns of an ensemble, in order.
PARAM_COLUMNS = (
    "landfall_lat",
    "landfall_lon",
    "heading_deg",
    "central_pressure_mb",
    "rmw_km",
    "forward_speed_kmh",
    "track_offset_km",
)


def params_to_row(params: StormParameters) -> list[float]:
    """Flatten storm parameters into the canonical :data:`PARAM_COLUMNS` row."""
    return [
        params.landfall.lat,
        params.landfall.lon,
        params.heading_deg,
        params.central_pressure_mb,
        params.rmw_km,
        params.forward_speed_kmh,
        params.track_offset_km,
    ]


def params_from_row(row) -> StormParameters:
    """Rebuild storm parameters from a canonical :data:`PARAM_COLUMNS` row."""
    lat, lon, heading, pressure, rmw, speed, offset = row
    return StormParameters(
        landfall=GeoPoint(float(lat), float(lon)),
        heading_deg=float(heading),
        central_pressure_mb=float(pressure),
        rmw_km=float(rmw),
        forward_speed_kmh=float(speed),
        track_offset_km=float(offset),
    )


class HurricaneEnsemble(ArrayBackedEnsemble):
    """An ordered hurricane ensemble: the (R, A) inundation-depth matrix
    plus each row's (R, 7) :data:`PARAM_COLUMNS` storm parameters.

    Rows are :class:`HurricaneRealization` objects, built on first use
    (see :class:`~repro.hazards.columnar.ArrayBackedEnsemble`).
    """

    param_columns = PARAM_COLUMNS

    @staticmethod
    def _from_row(
        index: int, depths_m: dict[str, float], params: list[float]
    ) -> HurricaneRealization:
        return HurricaneRealization(
            index=index,
            params=params_from_row(params),
            inundation=InundationField(depths_m=depths_m),
        )

    @staticmethod
    def _to_row(
        realization: HurricaneRealization,
    ) -> tuple[dict[str, float], list[float]]:
        return realization.inundation.depths_m, params_to_row(realization.params)


@dataclass
class EnsembleGenerator:
    """Generates hurricane ensembles for a region + asset catalog.

    Construction builds the coastal mesh and the (mesh x asset) inundation
    mapping once; each realization then costs its share of a block surge
    sweep plus one matrix-vector product.
    """

    region: CoastalRegion
    catalog: AssetCatalog
    scenario: HurricaneScenarioSpec
    surge_params: SurgeModelParams = field(default_factory=SurgeModelParams)
    extension_params: ExtensionParams = field(default_factory=ExtensionParams)
    mesh_spacing_km: float = 2.0

    deterministic = True

    def __post_init__(self) -> None:
        self._mesh = build_coastal_mesh(self.region, self.mesh_spacing_km)
        self._surge = SurgeModel(self._mesh, self.surge_params)
        self._mapper = InundationMapper(
            self.region, self._mesh, self.catalog, self.extension_params
        )
        from repro.geo.digest import geo_content_key

        self._geo_key = geo_content_key(self.catalog, self.region)

    @property
    def mesh_size(self) -> int:
        return len(self._mesh)

    @property
    def asset_order(self) -> tuple[str, ...]:
        """Asset names in depth-mapping order (the catalog's order).

        Every realization's ``depths_m`` mapping iterates in exactly this
        order, and so do the columns of every depth block the run
        controller settles.
        """
        return tuple(self._mapper.asset_names)

    def sample_parameters(
        self,
        rng: np.random.Generator,
        *,
        offset_km: float | None = None,
    ) -> StormParameters:
        """Draw one realization's storm parameters from the scenario spec.

        ``offset_km`` overrides the track-offset draw (no rng consumed
        for it): the hook :mod:`repro.sampling` uses to substitute a
        variance-reduced offset stream.  The default ``None`` keeps the
        historical draw order bit-identical.  This scalar draw is the
        reference :meth:`sample_parameter_block` is checked against.
        """
        s = self.scenario
        if offset_km is None:
            offset = float(rng.normal(0.0, s.track_offset_sd_km))
        else:
            offset = float(offset_km)
        heading = float(rng.normal(s.base_heading_deg, s.heading_sd_deg))
        # Offset the landfall perpendicular to the storm heading, so the
        # ensemble sweeps the track sideways across the island.
        landfall = destination_point(s.base_landfall, (heading + 90.0) % 360.0, offset)
        pressure = float(
            np.clip(
                rng.normal(s.pressure_mean_mb, s.pressure_sd_mb),
                *s.pressure_bounds_mb,
            )
        )
        rmw = float(s.rmw_median_km * math.exp(rng.normal(0.0, s.rmw_log_sd)))
        speed = float(
            np.clip(
                rng.normal(s.forward_speed_mean_kmh, s.forward_speed_sd_kmh),
                *s.forward_speed_bounds_kmh,
            )
        )
        return StormParameters(
            landfall=landfall,
            heading_deg=heading % 360.0,
            central_pressure_mb=pressure,
            rmw_km=rmw,
            forward_speed_kmh=speed,
            track_offset_km=offset,
        )

    def sample_parameter_block(
        self,
        rng: np.random.Generator,
        count: int,
        *,
        offsets_km: Sequence[float] | None = None,
    ) -> np.ndarray:
        """``count`` successive :meth:`sample_parameters` draws, as columns.

        Returns the (count, 7) :data:`PARAM_COLUMNS` matrix whose row ``i``
        is ``params_to_row`` of the ``i``-th of ``count`` calls of
        :meth:`sample_parameters` (with ``offset_km=offsets_km[i]``),
        bitwise, and consumes ``rng`` exactly as those calls do: the
        normals are one ``standard_normal((count, k))`` matrix in the
        scalar draw order (``loc + scale * z`` is how ``rng.normal``
        scales one), clipped with ``np.minimum``/``np.maximum``.
        ``math.exp`` and the landfall offset stay per element on
        :mod:`math`, since numpy's vectorized transcendentals may round
        differently.
        """
        s = self.scenario
        if offsets_km is None:
            z = rng.standard_normal((count, 5))
            offsets = 0.0 + s.track_offset_sd_km * z[:, 0]
            z = z[:, 1:]
        else:
            offsets = np.asarray(offsets_km, dtype=float)
            if offsets.shape != (count,):
                raise HazardError(f"{offsets.shape} offsets for {count} draws")
            z = rng.standard_normal((count, 4))
        headings = s.base_heading_deg + s.heading_sd_deg * z[:, 0]
        pressures = s.pressure_mean_mb + s.pressure_sd_mb * z[:, 1]
        lo, hi = s.pressure_bounds_mb
        pressures = np.minimum(np.maximum(pressures, lo), hi)
        log_rmws = 0.0 + s.rmw_log_sd * z[:, 2]
        speeds = s.forward_speed_mean_kmh + s.forward_speed_sd_kmh * z[:, 3]
        lo, hi = s.forward_speed_bounds_kmh
        speeds = np.minimum(np.maximum(speeds, lo), hi)
        # The landfall is offset perpendicular to the heading (see
        # sample_parameters), one destination_latlon call per row.
        base = s.base_landfall
        landfalls = np.array(
            list(
                map(
                    destination_latlon,
                    [base.lat] * count,
                    [base.lon] * count,
                    ((headings + 90.0) % 360.0).tolist(),
                    offsets.tolist(),
                )
            )
        ).reshape(count, 2)
        rmws = [s.rmw_median_km * math.exp(x) for x in log_rmws.tolist()]
        return np.column_stack(
            [landfalls, headings % 360.0, pressures, rmws, speeds, offsets]
        )

    @property
    def block_rows(self) -> int:
        """Realizations per kernel block: :data:`SURGE_STEPS_PER_BLOCK` surge steps.

        The surge grid runs in cache-sized steps of :func:`block_rows`
        rows over the nodes it evaluates (the inundation mapper's node
        support); a block spans several steps, so its per-block Python
        and numpy call overhead (track columns, smoothing, bookkeeping)
        is paid once per that many rows.
        """
        n_times = len(sample_times(-LEAD_HOURS, TRAIL_HOURS, self.surge_params.time_step_h))
        n_nodes = len(self._mapper.node_support)
        return SURGE_STEPS_PER_BLOCK * block_rows(n_times, n_nodes)

    def realize_block(
        self,
        params: np.ndarray,
        uniforms: np.ndarray | None,
        timer: dict[str, float] | None = None,
    ) -> np.ndarray:
        """The (R, A) depth block of R parameter rows, in :attr:`asset_order`.

        ``params`` is an (R, 7) :data:`PARAM_COLUMNS` block and
        ``uniforms`` the rows' (R, :attr:`mesh_size`) dropout draws
        (``None``: no dropout).  One kernel for the whole block: the
        track points as (R, 3) arrays (:func:`linear_track_points`, the
        points :meth:`StormParameters.to_track` would make), (R, T) track
        columns from them, the (R, T, n) surge peak over the mapper's node
        support in cache-sized row steps, the dropout mask, then shoreline
        smoothing and one inland extension per row.  Row ``r`` is bitwise
        identical to ``realize`` of that row with a generator whose
        ``random(mesh_size)`` is ``uniforms[r]``, whatever block it sits
        in.  ``timer``, when given, accumulates seconds under ``track``,
        ``surge`` and ``inundation``.
        """
        params = np.asarray(params, dtype=float)
        if params.ndim != 2 or params.shape[1] != len(PARAM_COLUMNS):
            raise HazardError(f"{params.shape} parameter block; rows need {len(PARAM_COLUMNS)} columns")
        t0 = perf_counter()
        landfall_lat, landfall_lon, heading, pressure, rmw, speed = params[:, :6].T
        point_times, lat, lon = linear_track_points(
            landfall_lat, landfall_lon, heading, speed
        )
        # A synthesized track keeps its intensity at every point.
        columns = self._surge.point_columns(
            point_times,
            lat,
            lon,
            np.broadcast_to(pressure[:, None], lat.shape),
            np.broadcast_to(rmw[:, None], lat.shape),
        )
        t1 = perf_counter()
        _, observed, _ = self._surge.peak_block(
            columns, uniforms, nodes=self._mapper.node_support
        )
        t2 = perf_counter()
        depths = self._mapper.depth_block(observed)
        if timer is not None:
            t3 = perf_counter()
            for stage, seconds in (
                ("track", t1 - t0), ("surge", t2 - t1), ("inundation", t3 - t2)
            ):
                timer[stage] = timer.get(stage, 0.0) + seconds
        return depths

    def realize(
        self, index: int, params: StormParameters, rng: np.random.Generator | None
    ) -> HurricaneRealization:
        """One realization: the scalar reference of :meth:`realize_block`.

        The row's dropout draws are ``rng.random(mesh_size)``, taken only
        when the surge model drops readings (``None`` disables dropout).
        """
        uniforms = None
        if rng is not None and self.surge_params.dropout_probability > 0.0:
            uniforms = rng.random(self.mesh_size)[None, :]
        depths = self.realize_block(np.array([params_to_row(params)]), uniforms)[0]
        return HurricaneRealization(
            index=index,
            params=params,
            inundation=InundationField(
                depths_m=dict(zip(self._mapper.asset_names, depths.tolist()))
            ),
        )

    def sample_all_parameters(self, count: int, seed: int) -> np.ndarray:
        """The serial parameter pass: every realization's parameter row.

        All draws come from the single main rng in realization order, so the
        parameter stream is independent of how the realization pass is
        later scheduled (worker count, caching).
        """
        return self.sample_parameter_block(np.random.default_rng(seed), count)

    def _realization_rngs(self, count: int, seed: int) -> list[np.random.Generator]:
        """numpy's own per-realization dropout rngs, spawned from ``seed``.

        The reference that :class:`~repro.runtime.streams.SpawnedStreams`
        replays bitwise; the run controller never builds these.
        """
        return [
            np.random.default_rng(child)
            for child in np.random.SeedSequence(seed).spawn(count)
        ]

    def generate(
        self,
        count: int = 1000,
        seed: int = 0,
        n_jobs: int = 1,
        cache_dir: str | None = None,
        resume: bool = False,
        retry: "RetryPolicy | None" = None,
        faults: "FaultPlan | None" = None,
        transport: str | None = None,
    ) -> HurricaneEnsemble:
        """Generate a full ensemble deterministically from ``seed``.

        The realization pass is delegated to the fault-tolerant
        :class:`~repro.runtime.controller.RunController`, which runs it
        as :attr:`block_rows`-row blocks of the block kernel.
        ``n_jobs > 1`` ships those blocks to a pool of
        ``min(n_jobs, blocks)`` worker processes (bit-identical output
        for every worker count, because each realization owns a spawned
        uniform stream; docs/performance.md has the measured scaling),
        failed or hung workers are retried under ``retry`` (a
        :class:`~repro.runtime.controller.RetryPolicy`), and ``faults``
        injects a deterministic
        :class:`~repro.runtime.faults.FaultPlan` for chaos testing.
        ``transport`` is deprecated (removal in 3.0.0) and ignored:
        pooled runs have one block transport.

        ``cache_dir`` names an on-disk cache directory: a hit (same
        scenario, surge/extension physics, mesh spacing, seed, and count)
        loads the stored ensemble instead of regenerating, and corrupt or
        stale entries are quarantined and regenerated.  With a cache
        directory, per-realization progress is also checkpointed to
        sharded files under ``run-<key>/``; ``resume=True`` restarts an
        interrupted run from those shards instead of from scratch.
        """
        if count < 1:
            raise HazardError("ensemble size must be at least 1")
        if n_jobs < 1:
            raise HazardError("n_jobs must be at least 1")
        if resume and cache_dir is None:
            raise HazardError("resume requires a cache_dir to hold checkpoints")
        if transport is not None:
            from repro._deprecation import warn_deprecated

            warn_deprecated("EnsembleGenerator.generate(transport=...)")
        from repro.obs.observer import current as current_observer

        obs = current_observer()
        with obs.span(
            "ensemble.generate",
            scenario=self.scenario.name,
            count=count,
            seed=seed,
            n_jobs=n_jobs,
        ):
            key = self.cache_key(count, seed)
            if cache_dir is not None:
                from repro.io.ensemble_cache import load_ensemble_cache

                with obs.span("ensemble.cache_lookup"):
                    cached = load_ensemble_cache(cache_dir, key)
                if cached is not None:
                    return cached

            from repro.runtime.checkpoint import CheckpointStore
            from repro.runtime.controller import RunController

            checkpoint = None
            if cache_dir is not None:
                checkpoint = CheckpointStore(
                    run_dir=Path(cache_dir) / f"run-{key}",
                    key=key,
                    count=count,
                    seed=seed,
                    scenario_name=self.scenario.name,
                    asset_names=self.asset_order,
                )
            controller = RunController(
                self,
                count=count,
                seed=seed,
                n_jobs=n_jobs,
                policy=retry,
                faults=faults,
                checkpoint=checkpoint,
            )
            ensemble = controller.run(resume=resume)
            if cache_dir is not None:
                from repro.io.ensemble_cache import save_ensemble_cache

                with obs.span("ensemble.cache_store"):
                    save_ensemble_cache(ensemble, cache_dir, key)
                checkpoint.discard()
            return ensemble

    def cache_key(self, count: int, seed: int) -> str:
        """Content hash identifying this generator's output for (count, seed)."""
        from repro.io.ensemble_cache import ensemble_cache_key

        return ensemble_cache_key(
            scenario=self.scenario,
            surge_params=self.surge_params,
            extension_params=self.extension_params,
            mesh_spacing_km=self.mesh_spacing_km,
            count=count,
            seed=seed,
            geo_key=self._geo_key,
        )


