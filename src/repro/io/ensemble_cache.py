"""On-disk hurricane-ensemble cache.

Regenerating the paper's 1000-realization ensemble is the dominant cost of
every figure and ablation run, yet the output is a pure function of the
scenario spec, the surge/extension physics, the mesh spacing, and the
(count, seed) pair.  This module caches that output under a directory:

- ``<key>.npz`` -- compressed arrays: the ensemble's own (R x A) depth
  matrix and (R x 7) storm-parameter matrix, written and read as they are.  Binary storage round-trips every float
  bit-exactly (unlike the CSV exchange format in ``realization_io``), so a
  cache-loaded ensemble is *identical* to the generated one.
- ``<key>.json`` -- a human-readable sidecar with the key inputs, asset
  names, scenario name, and seed.

The key is a sha256 over the canonical JSON of everything the ensemble
depends on, so editing any physics parameter, the scenario, the mesh
spacing, the seed, or the count changes the key and the stale entry is
simply never found.  Corrupt entries (truncated npz, mangled sidecar,
mismatched shapes, non-finite depths or parameters) load as a miss and are quarantined to
``<name>.corrupt`` so the caller regenerates them without destroying the
evidence; both files are written atomically (tmp sibling + rename), so a
writer killed mid-write can never leave a loadable-but-torn entry.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import zipfile
from pathlib import Path

import numpy as np

from repro.errors import SerializationError
from repro.io.atomic import atomic_path, atomic_write_text, quarantine_file
from repro.obs.observer import current as current_observer
from repro.hazards.hurricane.ensemble import (
    PARAM_COLUMNS,
    HurricaneEnsemble,
    HurricaneScenarioSpec,
    params_from_row,  # noqa: F401 - re-exported (the parameter row codec)
    params_to_row,  # noqa: F401 - re-exported
)
from repro.hazards.hurricane.inundation import ExtensionParams
from repro.hazards.hurricane.surge import SurgeModelParams
from repro.io.scenario_io import scenario_to_dict

# Bump when the stored layout changes; old entries then miss cleanly.
CACHE_FORMAT_VERSION = 1

_PARAM_COLUMNS = PARAM_COLUMNS  # backwards-compatible alias


def ensemble_cache_key(
    scenario: HurricaneScenarioSpec,
    surge_params: SurgeModelParams,
    extension_params: ExtensionParams,
    mesh_spacing_km: float,
    count: int,
    seed: int,
    geo_key: str | None = None,
) -> str:
    """Content hash of every input the generated ensemble depends on.

    ``geo_key`` is the :func:`repro.geo.digest.geo_content_key` of the
    coastline + catalog the scenario acts on; generators always pass it
    so two regions with identical storm parameters never share a cache
    entry.
    """
    payload = {
        "format": CACHE_FORMAT_VERSION,
        "scenario": scenario_to_dict(scenario),
        "surge_params": dataclasses.asdict(surge_params),
        "extension_params": dataclasses.asdict(extension_params),
        "mesh_spacing_km": mesh_spacing_km,
        "count": count,
        "seed": seed,
    }
    if geo_key is not None:
        payload["geo"] = geo_key
    canonical = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode()).hexdigest()[:32]


def _cache_paths(cache_dir: str | Path, key: str) -> tuple[Path, Path]:
    base = Path(cache_dir)
    return base / f"ensemble-{key}.npz", base / f"ensemble-{key}.json"


def shared_depths_path(cache_dir: str | Path, key: str) -> Path:
    """The uncompressed depth sidecar (mmap-able by sweep workers)."""
    return Path(cache_dir) / f"ensemble-{key}-depths.npy"


def save_ensemble_cache(
    ensemble: HurricaneEnsemble, cache_dir: str | Path, key: str
) -> Path:
    """Write the ensemble under ``cache_dir``; returns the npz path."""
    npz_path, meta_path = _cache_paths(cache_dir, key)
    try:
        npz_path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise SerializationError(
            f"cannot create ensemble cache directory {str(cache_dir)!r}: {exc}"
        ) from exc
    names = ensemble.asset_names
    depths = ensemble.depth_view()
    params = ensemble.parameter_view()
    with atomic_path(npz_path) as tmp:
        with tmp.open("wb") as handle:
            np.savez_compressed(handle, depths=depths, params=params)
    # Uncompressed depth sidecar: sweep workers memory-map this instead
    # of receiving a pickled/shared-memory copy (npz entries are zip
    # members and cannot be mmapped).  Written atomically like the rest;
    # a missing sidecar (older cache entries) just means no mmap path.
    with atomic_path(shared_depths_path(cache_dir, key)) as tmp:
        with tmp.open("wb") as handle:
            np.save(handle, np.ascontiguousarray(depths))
    meta = {
        "format": CACHE_FORMAT_VERSION,
        "key": key,
        "scenario_name": ensemble.scenario_name,
        "seed": ensemble.seed,
        "count": len(ensemble),
        "asset_names": names,
        "param_columns": list(PARAM_COLUMNS),
    }
    atomic_write_text(meta_path, json.dumps(meta, indent=2))
    current_observer().inc("cache.ensemble.store")
    return npz_path


def load_ensemble_cache(cache_dir: str | Path, key: str) -> HurricaneEnsemble | None:
    """Load a cached ensemble, or ``None`` on a miss.

    Anything wrong with the entry -- undecodable npz or JSON, key/format
    mismatch, inconsistent shapes, a non-finite depth or parameter -- is
    treated as a miss so the caller
    regenerates; the torn or corrupt files are quarantined to
    ``<name>.corrupt`` (with a :class:`CorruptArtifactWarning`) rather
    than silently overwritten, so the evidence of the damage survives.
    """
    obs = current_observer()
    npz_path, meta_path = _cache_paths(cache_dir, key)
    if not npz_path.exists() or not meta_path.exists():
        obs.inc("cache.ensemble.miss")
        return None
    try:
        meta = json.loads(meta_path.read_text())
        if meta["format"] != CACHE_FORMAT_VERSION:
            obs.inc("cache.ensemble.miss")
            return None  # older layout: stale, not corrupt
        if meta["key"] != key:
            return _quarantine_entry(npz_path, meta_path, "sidecar key mismatch")
        names = list(meta["asset_names"])
        count = int(meta["count"])
        # Own the file handle: np.load on a torn zip raises before its
        # context manager exists, which would leak the open descriptor.
        with open(npz_path, "rb") as handle, np.load(handle) as data:
            depths = data["depths"]
            params = data["params"]
        if depths.shape != (count, len(names)) or params.shape != (
            count,
            len(PARAM_COLUMNS),
        ):
            return _quarantine_entry(npz_path, meta_path, "array shape mismatch")
        if not (np.isfinite(depths).all() and np.isfinite(params).all()):
            return _quarantine_entry(
                npz_path, meta_path, "non-finite depths or parameters"
            )
        obs.inc("cache.ensemble.hit")
        return HurricaneEnsemble(
            meta["scenario_name"],
            seed=meta["seed"],
            asset_names=names,
            depths=depths,
            params=params,
        )
    except (
        KeyError,
        TypeError,
        ValueError,
        OSError,
        zipfile.BadZipFile,
        json.JSONDecodeError,
    ) as exc:
        return _quarantine_entry(npz_path, meta_path, f"unreadable entry: {exc}")


def shared_depth_descriptor(cache_dir: str | Path, key: str) -> dict | None:
    """An mmap descriptor for a cached ensemble's depth sidecar.

    Returns the payload :func:`repro.io.shared_ensemble.attach_shared_ensemble`
    accepts (``kind == "mmap"``), or ``None`` when the entry lacks a
    verifiable sidecar -- missing files, stale format, or a sidecar
    whose shape disagrees with the meta (the caller then publishes a
    shared-memory segment instead).  Never raises on a damaged entry.
    """
    npy_path = shared_depths_path(cache_dir, key)
    _, meta_path = _cache_paths(cache_dir, key)
    if not npy_path.exists() or not meta_path.exists():
        return None
    try:
        meta = json.loads(meta_path.read_text())
        if meta["format"] != CACHE_FORMAT_VERSION or meta["key"] != key:
            return None
        names = list(meta["asset_names"])
        count = int(meta["count"])
        depths = np.load(npy_path, mmap_mode="r")
        if depths.shape != (count, len(names)):
            return None
        return {
            "kind": "mmap",
            "path": str(npy_path),
            "shape": [count, len(names)],
            "dtype": str(depths.dtype),
            "scenario_name": meta["scenario_name"],
            "seed": meta["seed"],
            "asset_names": names,
        }
    except (KeyError, ValueError, OSError, json.JSONDecodeError):
        return None


def _quarantine_entry(npz_path: Path, meta_path: Path, reason: str) -> None:
    """Quarantine both halves of a damaged cache entry; always a miss."""
    obs = current_observer()
    obs.inc("cache.ensemble.quarantined")
    obs.inc("cache.ensemble.miss")
    obs.event("cache_quarantine", entry=npz_path.name, reason=reason)
    quarantine_file(npz_path, reason)
    quarantine_file(meta_path, reason)
    return None
