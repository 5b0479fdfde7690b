"""Simplified storm-surge solver (wind setup + inverse barometer).

The paper drives its analysis with ADCIRC, a finite-element shallow-water
solver.  ADCIRC itself is an HPC code with proprietary meshes; what the
downstream framework consumes is only the *peak water surface elevation
(WSE) at shoreline nodes per hurricane realization*.  This module produces
that quantity with the standard first-order surge physics:

* **wind setup**: steady-state onshore wind stress balance gives a setup
  proportional to the square of the onshore wind component, scaled by the
  local shelf factor (broad shallow shelves pile up far more water), and
* **inverse barometer**: ~1 cm of sea-level rise per mb of local pressure
  deficit, following the storm's Holland pressure profile,
* **wave setup**: a fixed fraction of the wind setup, representing breaking
  wave momentum flux.

The solver sweeps the storm track in time steps and records the peak WSE
per node.  It then reproduces the coarse-mesh artifact the paper
describes ("a water surface elevation of 1.5 m, but then 0 m nearby in
several locations") by dropping a random subset of node readings to zero;
the shoreline-averaging step in :mod:`repro.hazards.hurricane.inundation`
repairs this exactly as the paper's post-processing does.

One block kernel produces the sweep.  :meth:`SurgeModel.point_columns`
turns R tracks given as (R x point) arrays into (R x timestep) columns of
storm scalars -- the per-segment great-circle speed and bearing are
computed once per track segment with :mod:`math`, and the interpolation,
projection and intensity arithmetic is vectorized;
:meth:`SurgeModel.track_columns` is its adapter for ``StormTrack``
objects.  :meth:`SurgeModel.peak_block` evaluates the setup +
inverse-barometer physics on the (R x timestep x node) grid, optionally
on a subset of the nodes, in cache-sized row steps (:func:`block_rows`),
with in-place ufuncs in the reference operand order, reducing to the
peak with a max over time, then masks the dropped readings given a
block of uniform draws.  :meth:`SurgeModel.run` is that kernel on a
block of one row over every node.
:meth:`SurgeModel.run_reference` keeps the original per-timestep Python
loop over :meth:`SurgeModel._wse_at_time`; the two are bitwise identical
(asserted by tests), so the reference path serves as both a correctness
oracle and the baseline for the ensemble-throughput benchmark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from repro.errors import HazardError
from repro.geo.coords import EARTH_RADIUS_KM, bearing_between_deg, great_circle_km
from repro.hazards.hurricane.mesh import CoastalMesh
from repro.hazards.hurricane.track import (
    AMBIENT_PRESSURE_MB,
    StormTrack,
    check_track_points,
    sample_times,
)
from repro.hazards.hurricane.wind import (
    AIR_DENSITY_KG_M3,
    ASYMMETRY_FACTOR,
    EARTH_ROTATION_RAD_S,
    INFLOW_ANGLE_DEG,
    SURFACE_WIND_FACTOR,
    HollandWindField,
)


@dataclass(frozen=True)
class SurgeModelParams:
    """Tunable physics coefficients of the surge solver.

    Defaults are calibrated (see ``tests/hazards/test_calibration.py``) so
    that the Oahu case-study ensemble reproduces the paper's headline
    failure statistics: the Honolulu control center floods in roughly 9.5%
    of 1000 Category-2 realizations.
    """

    setup_coefficient: float = 0.00112  # m per (m/s)^2 of onshore wind, shelf=1
    wave_setup_fraction: float = 0.25  # extra fraction of wind setup
    inverse_barometer_m_per_mb: float = 0.010
    time_step_h: float = 1.0
    dropout_probability: float = 0.15  # coarse-mesh zero-reading artifact
    sea_level_offset_m: float = 0.0  # climate sea-level rise / tide stage

    def __post_init__(self) -> None:
        if self.setup_coefficient <= 0.0:
            raise HazardError("setup coefficient must be positive")
        if not 0.0 <= self.wave_setup_fraction <= 1.0:
            raise HazardError("wave setup fraction must be in [0, 1]")
        if self.inverse_barometer_m_per_mb < 0.0:
            raise HazardError("inverse barometer coefficient cannot be negative")
        if self.time_step_h <= 0.0:
            raise HazardError("time step must be positive")
        if not 0.0 <= self.dropout_probability < 1.0:
            raise HazardError("dropout probability must be in [0, 1)")
        if not -1.0 <= self.sea_level_offset_m <= 3.0:
            raise HazardError("sea level offset must be in [-1, 3] m")


@dataclass(frozen=True)
class SurgeResult:
    """Peak water surface elevation per mesh node for one storm."""

    mesh: CoastalMesh
    raw_peak_wse_m: np.ndarray  # before coarse-mesh dropout
    peak_wse_m: np.ndarray  # after dropout (what the "model output" shows)
    peak_time_h: np.ndarray

    def max_wse_m(self) -> float:
        return float(np.max(self.raw_peak_wse_m))


#: Holland B exponent used by the surge sweep (the wind-field default).
_HOLLAND_B: float = HollandWindField.__dataclass_fields__["holland_b"].default

#: ``math.radians``' own factor, so ``x * _DEG_TO_RAD == math.radians(x)``.
_DEG_TO_RAD = math.pi / 180.0
_COS_INFLOW = math.cos(math.radians(INFLOW_ANGLE_DEG))
_SIN_INFLOW = math.sin(math.radians(INFLOW_ANGLE_DEG))

#: Target size of one float64 (rows x timesteps x nodes) temporary of the
#: block kernel.  The kernel is memory-bound: at ~256 KB its dozen live
#: buffers stay in cache (docs/performance.md, "Block generation").
BLOCK_BYTES = 256 * 1024


def block_rows(n_times: int, n_nodes: int) -> int:
    """Kernel block height: rows whose (rows, T, N) grid is ~BLOCK_BYTES.

    An empty node set (no mesh node reaches an asset) counts as one node.
    """
    return max(1, BLOCK_BYTES // (8 * n_times * max(1, n_nodes)))


def _bracket(
    point_times: Sequence[float], step_h: float
) -> tuple[list[float], np.ndarray, np.ndarray]:
    """Sample times of a track with these point times, and their brackets.

    Brackets each sample time as ``StormTrack._bracket`` does: the first
    segment ``k`` = (a, b) with a <= t <= b, at fraction (t - a) / (b - a).
    """
    times = sample_times(point_times[0], point_times[-1], step_h)
    segment: list[int] = []
    fraction: list[float] = []
    for t in times:
        for k, (a, b) in enumerate(zip(point_times, point_times[1:])):
            if a <= t <= b:
                break
        else:  # pragma: no cover - sample_times stays inside the track
            raise HazardError(f"time {t} h not bracketed")
        segment.append(k)
        fraction.append((t - a) / (b - a))
    return times, np.array(segment), np.array(fraction)


@dataclass(frozen=True)
class TrackColumns:
    """A block of tracks as (R, T) columns of per-timestep storm scalars."""

    times: list[float]
    cx: np.ndarray  # storm center in the mesh projection (km)
    cy: np.ndarray
    pc: np.ndarray  # central pressure (mb)
    deficit_mb: np.ndarray
    deficit_pa: np.ndarray
    rmax_m: np.ndarray
    f: np.ndarray  # |Coriolis parameter|
    vmax: np.ndarray  # Holland maximum gradient wind, floored at 1e-9
    drift_x: np.ndarray  # ASYMMETRY_FACTOR * motion (m/s) * motion unit vector
    drift_y: np.ndarray

    def block(self, rows: slice) -> dict[str, np.ndarray]:
        """Rows ``rows`` of every column as (r, T, 1) broadcast columns."""
        return {
            f.name: getattr(self, f.name)[rows, :, None]
            for f in fields(self)
            if f.name != "times"
        }


class SurgeModel:
    """Computes peak WSE along a coastal mesh for a storm track."""

    def __init__(self, mesh: CoastalMesh, params: SurgeModelParams | None = None) -> None:
        self.mesh = mesh
        self.params = params or SurgeModelParams()
        self._xy = mesh.xy_km
        self._normals = mesh.normals
        self._shelf = mesh.shelf_factors
        # Per-node operands of the block kernel, one contiguous row each:
        # x, y, normal x, normal y, setup coefficient x shelf factor.
        self._node_operands = np.stack(
            [
                self._xy[:, 0],
                self._xy[:, 1],
                self._normals[:, 0],
                self._normals[:, 1],
                self.params.setup_coefficient * self._shelf,
            ]
        )

    def _wse_at_time(self, track: StormTrack, time_h: float) -> np.ndarray:
        state = track.state_at(time_h)
        field = HollandWindField(
            state=state,
            motion_kmh=track.forward_speed_kmh_at(time_h),
            motion_bearing_deg=track.heading_deg_at(time_h),
        )
        wind = field.wind_vectors(self._xy, self.mesh.projection)
        onshore = wind[:, 0] * self._normals[:, 0] + wind[:, 1] * self._normals[:, 1]
        onshore = np.maximum(onshore, 0.0)
        setup = self.params.setup_coefficient * self._shelf * onshore * onshore
        setup *= 1.0 + self.params.wave_setup_fraction

        cx, cy = self.mesh.projection.to_xy(state.center)
        radius_km = np.hypot(self._xy[:, 0] - cx, self._xy[:, 1] - cy)
        local_pressure = field.pressure_mb(radius_km)
        deficit_mb = np.maximum(
            0.0, np.full_like(local_pressure, 1013.0) - local_pressure
        )
        barometer = self.params.inverse_barometer_m_per_mb * deficit_mb
        return setup + barometer + self.params.sea_level_offset_m

    def track_columns(self, tracks: Sequence[StormTrack]) -> TrackColumns:
        """The block's per-timestep storm scalars as (R, T) columns.

        An adapter over :meth:`point_columns` for arbitrary tracks.  The
        tracks must share their point times (every synthesized track of
        an ensemble does), so one bracketing serves the whole block.
        """
        if not tracks:
            raise HazardError("a kernel block needs at least one track")
        point_times = [p.time_h for p in tracks[0].points]
        if any([p.time_h for p in t.points] != point_times for t in tracks[1:]):
            raise HazardError("tracks in one kernel block must share their point times")

        def points(attr) -> np.ndarray:
            return np.array([[attr(p) for p in t.points] for t in tracks])

        return self.point_columns(
            point_times,
            points(lambda p: p.center.lat),
            points(lambda p: p.center.lon),
            points(lambda p: p.central_pressure_mb),
            points(lambda p: p.rmw_km),
        )

    def point_columns(
        self,
        point_times: Sequence[float],
        lat: np.ndarray,
        lon: np.ndarray,
        pressure_mb: np.ndarray,
        rmw_km: np.ndarray,
    ) -> TrackColumns:
        """(R, T) storm columns from R tracks given as (R, P) point arrays.

        Row ``r`` is the track through the points (``point_times[k]``,
        ``lat[r, k]``, ``lon[r, k]``, ``pressure_mb[r, k]``,
        ``rmw_km[r, k]``).  The points get the checks building a
        :class:`~repro.hazards.hurricane.track.StormTrack` makes, as one
        vectorized pass raising the same error types
        (:func:`~repro.hazards.hurricane.track.check_track_points`).

        Evaluates the same expressions :meth:`StormTrack.state_at`,
        :meth:`StormTrack.heading_deg_at`, :meth:`StormTrack.forward_speed_kmh_at`,
        :meth:`LocalProjection.to_xy`, and the wind field's scalar profile use
        (same operations, same order) without constructing the intermediate
        ``TrackPoint``/``HollandWindField`` objects, so the kernel is bitwise
        identical to the per-timestep reference sweep.  The great-circle
        speed and bearing are per-segment constants, computed once per track
        segment with :mod:`math`; the Coriolis column keeps ``math.sin``.
        """
        point_times = tuple(float(t) for t in point_times)
        lat, lon, pressure, rmw = (
            np.asarray(a, dtype=float) for a in (lat, lon, pressure_mb, rmw_km)
        )
        check_track_points(point_times, lat, lon, pressure, rmw)
        times, seg, frac = _bracket(point_times, self.params.time_step_h)

        # Per-segment great-circle motion: the transcendentals on math, one
        # call per segment, the exact arithmetic vectorized.
        segment_ends = (lat[:, :-1], lon[:, :-1], lat[:, 1:], lon[:, 1:])
        ends = [e.ravel().tolist() for e in segment_ends]
        shape = (len(lat), len(point_times) - 1)
        distance_km = np.array(list(map(great_circle_km, *ends))).reshape(shape)
        motion_kmh = distance_km / np.diff(point_times)
        motion = np.where(motion_kmh > 0.0, motion_kmh / 3.6, 0.0)[:, seg]
        # unit_vector_deg of each segment's bearing.
        bearing = np.array(list(map(bearing_between_deg, *ends)))
        theta = (bearing * _DEG_TO_RAD).tolist()
        mx = np.array(list(map(math.sin, theta))).reshape(shape)[:, seg]
        my = np.array(list(map(math.cos, theta))).reshape(shape)[:, seg]

        # StormTrack.state_at's interpolation, all four quantities at once.
        points = np.stack([lat, lon, pressure, rmw])
        start = points[:, :, seg]
        lat, lon, pressure, rmw_km = start + frac * (points[:, :, seg + 1] - start)
        origin = self.mesh.projection.origin
        kx = math.cos(math.radians(origin.lat))
        deficit_mb = AMBIENT_PRESSURE_MB - pressure
        deficit_pa = deficit_mb * 100.0
        # coriolis_parameter(lat) per element, with math.sin; the radians
        # factor and the scaling are exact elementwise ops.
        sines = np.fromiter(
            map(math.sin, (lat * _DEG_TO_RAD).ravel().tolist()),
            dtype=float,
            count=lat.size,
        ).reshape(lat.shape)
        return TrackColumns(
            times=times,
            cx=(lon - origin.lon) * _DEG_TO_RAD * EARTH_RADIUS_KM * kx,
            cy=(lat - origin.lat) * _DEG_TO_RAD * EARTH_RADIUS_KM,
            pc=pressure,
            deficit_mb=deficit_mb,
            deficit_pa=deficit_pa,
            rmax_m=rmw_km * 1000.0,
            f=np.abs(2.0 * EARTH_ROTATION_RAD_S * sines),
            vmax=np.maximum(
                np.sqrt(_HOLLAND_B * deficit_pa / (AIR_DENSITY_KG_M3 * math.e)), 1e-9
            ),
            drift_x=ASYMMETRY_FACTOR * motion * mx,
            drift_y=ASYMMETRY_FACTOR * motion * my,
        )

    def _wse_block(self, c: dict[str, np.ndarray], operands: np.ndarray) -> np.ndarray:
        """The (R, T, n) WSE grid of one row block, from (R, T, 1) columns.

        ``operands`` holds the per-node operand rows of the n nodes
        evaluated.  Every elementwise expression mirrors
        :meth:`_wse_at_time` / :meth:`HollandWindField.wind_vectors`
        exactly (same ufuncs, same operand order), evaluated in place into
        a handful of buffers; ``exp(-ratio_b)`` feeds both the gradient
        wind and the pressure profile, so it is computed once.
        """
        node_x, node_y, normal_x, normal_y, setup_per_shelf = operands
        dx = np.subtract(node_x, c["cx"])
        dy = np.subtract(node_y, c["cy"])
        radius_km = np.hypot(dx, dy)

        # Holland gradient wind (wind.gradient_wind_ms).
        r_m = np.multiply(radius_km, 1000.0)
        np.maximum(r_m, 1.0, out=r_m)
        ratio_b = np.divide(c["rmax_m"], r_m)
        np.power(ratio_b, _HOLLAND_B, out=ratio_b)
        decay_exp = np.negative(ratio_b)
        np.exp(decay_exp, out=decay_exp)
        rf_half = np.multiply(r_m, c["f"], out=r_m)
        rf_half /= 2.0
        term = np.multiply(ratio_b, _HOLLAND_B, out=ratio_b)
        term *= c["deficit_pa"]
        term /= AIR_DENSITY_KG_M3
        term *= decay_exp
        buf = np.multiply(rf_half, rf_half)
        term += buf
        gradient = np.sqrt(term, out=term)
        gradient -= rf_half

        # Surface wind vectors (wind.wind_vectors).
        speed = np.multiply(SURFACE_WIND_FACTOR, gradient, out=rf_half)
        safe_r = np.maximum(radius_km, 1e-6, out=radius_km)
        ux = np.divide(dx, safe_r, out=dx)
        uy = np.divide(dy, safe_r, out=dy)
        wind_x = np.negative(uy, out=safe_r)
        wind_x *= _COS_INFLOW
        np.negative(ux, out=buf)
        buf *= _SIN_INFLOW
        wind_x += buf
        wind_x *= speed
        wind_y = np.multiply(_COS_INFLOW, ux, out=buf)
        np.negative(uy, out=ux)
        ux *= _SIN_INFLOW
        wind_y += ux
        wind_y *= speed
        decay = np.divide(gradient, c["vmax"], out=gradient)
        drift = np.multiply(c["drift_x"], decay, out=speed)
        wind_x += drift
        np.multiply(c["drift_y"], decay, out=drift)
        wind_y += drift

        # Wind setup against the onshore normal (surge._wse_at_time).
        onshore = np.multiply(wind_x, normal_x, out=wind_x)
        wind_y *= normal_y
        onshore += wind_y
        np.maximum(onshore, 0.0, out=onshore)
        setup = np.multiply(setup_per_shelf, onshore, out=wind_y)
        setup *= onshore
        setup *= 1.0 + self.params.wave_setup_fraction

        # Inverse barometer from the Holland pressure profile (wind.pressure_mb).
        local_pressure = np.multiply(c["deficit_mb"], decay_exp, out=decay_exp)
        local_pressure += c["pc"]
        deficit_mb = np.subtract(1013.0, local_pressure, out=local_pressure)
        np.maximum(0.0, deficit_mb, out=deficit_mb)
        deficit_mb *= self.params.inverse_barometer_m_per_mb
        setup += deficit_mb
        setup += self.params.sea_level_offset_m
        return setup

    def peak_block(
        self,
        columns: TrackColumns,
        uniforms: np.ndarray | None,
        peak_times: bool = False,
        nodes: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Peak WSE per node for every track of ``columns``.

        Returns ``(raw_peak, observed_peak, peak_time)``, each (R, N);
        ``peak_time`` is computed only when ``peak_times`` is set and is
        ``None`` otherwise.  ``nodes``, when given, restricts the grid to
        those mesh node indices: every other node keeps a peak of 0 and a
        peak time at the sweep start, and the evaluated nodes' bits do not
        change.  The grid is evaluated in row blocks of :func:`block_rows`,
        so one temporary stays cache-sized whatever R is.  ``uniforms`` is
        the (R, N) block of dropout draws: node ``j`` of row ``r`` reads 0
        when ``uniforms[r, j]`` is below the dropout probability (``None``
        disables dropout).
        """
        n_rows = len(columns.pc)
        n_nodes = len(self.mesh)
        if uniforms is not None and np.shape(uniforms) != (n_rows, n_nodes):
            raise HazardError(
                f"{np.shape(uniforms)} dropout draws for {n_rows} tracks "
                f"on {n_nodes} nodes"
            )
        if nodes is not None and len(nodes) == n_nodes:
            nodes = None
        operands = self._node_operands
        if nodes is not None:
            operands = operands[:, nodes]
        times = np.asarray(columns.times)
        peak = np.empty((n_rows, operands.shape[1]))
        peak_time = np.empty_like(peak) if peak_times else None
        step = block_rows(len(times), operands.shape[1])
        for start in range(0, n_rows, step):
            rows = slice(start, start + step)
            grid = self._wse_block(columns.block(rows), operands)
            raw_max = grid.max(axis=1)
            # The reference loop starts its running peak at 0, so sub-zero
            # WSE never registers and the peak time stays at the sweep start.
            positive = raw_max > 0.0
            peak[rows] = np.where(positive, raw_max, 0.0)
            if peak_time is not None:
                first_idx = grid.argmax(axis=1)
                peak_time[rows] = np.where(positive, times[first_idx], times[0])
        if nodes is not None:
            peak_all = np.zeros((n_rows, n_nodes))
            peak_all[:, nodes] = peak
            peak = peak_all
            if peak_time is not None:
                time_all = np.full((n_rows, n_nodes), times[0])
                time_all[:, nodes] = peak_time
                peak_time = time_all
        observed = peak.copy()
        if uniforms is not None and self.params.dropout_probability > 0.0:
            observed[uniforms < self.params.dropout_probability] = 0.0
        return peak, observed, peak_time

    def run(self, track: StormTrack, rng: np.random.Generator | None = None) -> SurgeResult:
        """Sweep the track and return peak WSE per node (block kernel, R = 1).

        ``rng`` drives the coarse-mesh dropout artifact (one
        ``random(N)`` draw); pass ``None`` to disable dropout (raw physics
        only).  Bitwise identical to :meth:`run_reference`.
        """
        uniforms = None
        if rng is not None and self.params.dropout_probability > 0.0:
            uniforms = rng.random(len(self.mesh))[None, :]
        peak, observed, peak_time = self.peak_block(
            self.track_columns([track]), uniforms, peak_times=True
        )
        assert peak_time is not None
        return SurgeResult(
            mesh=self.mesh,
            raw_peak_wse_m=peak[0],
            peak_wse_m=observed[0],
            peak_time_h=peak_time[0],
        )

    def _apply_dropout(
        self, peak: np.ndarray, rng: np.random.Generator | None
    ) -> np.ndarray:
        observed = peak.copy()
        if rng is not None and self.params.dropout_probability > 0.0:
            dropped = rng.random(len(peak)) < self.params.dropout_probability
            observed = np.where(dropped, 0.0, observed)
        return observed

    def run_reference(
        self, track: StormTrack, rng: np.random.Generator | None = None
    ) -> SurgeResult:
        """The original per-timestep sweep, kept as the correctness oracle.

        Tests assert ``run`` produces bitwise-identical peaks; benchmarks
        use this path as the pre-vectorization baseline.
        """
        times = track.times(self.params.time_step_h)
        n = len(self.mesh)
        peak = np.zeros(n)
        peak_time = np.full(n, times[0])
        for t in times:
            wse = self._wse_at_time(track, t)
            improved = wse > peak
            peak = np.where(improved, wse, peak)
            peak_time = np.where(improved, t, peak_time)
        return SurgeResult(
            mesh=self.mesh,
            raw_peak_wse_m=peak,
            peak_wse_m=self._apply_dropout(peak, rng),
            peak_time_h=peak_time,
        )
