"""Sharded, crash-consistent checkpoints for long ensemble runs.

A run's progress lives under ``<cache_dir>/run-<key>/``:

* ``shard-<block>.npz`` -- the realizations of one contiguous index block
  (``shard_size`` wide): an ``indices`` vector plus matching ``depths``
  and ``params`` row blocks.  A shard may be *partial* (only some of its
  block completed) -- the ``indices`` vector is authoritative.
* ``manifest.json`` -- the run identity (cache key, count, seed, scenario
  name, asset names) and, per persisted shard, its filename, row count,
  and sha256 checksum.

Every file is written atomically (tmp sibling + ``os.replace``), and the
manifest is rewritten after each shard flush, so a controller killed at
*any* instant leaves either the previous or the new consistent state on
disk.  On resume the store re-verifies everything -- checksum, shapes, finite
values, index ranges, and that each stored parameter row is bit-identical
to the recomputed serial parameter pass -- and quarantines any shard that fails
(``<name>.corrupt`` + :class:`CorruptArtifactWarning`) so only its block
is regenerated.  Because realization ``i`` is a pure function of
``(seed, i)``, an ensemble resumed from shards is bit-identical to an
uninterrupted run.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.errors import CheckpointCorruptError
from repro.hazards.hurricane.ensemble import PARAM_COLUMNS
from repro.io.atomic import atomic_path, atomic_write_text, quarantine_file

CHECKPOINT_FORMAT_VERSION = 1
DEFAULT_SHARD_SIZE = 32


def sha256_of(path: Path) -> str:
    """Streaming sha256 of a file (checksums for shard/manifest entries)."""
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


_sha256_of = sha256_of  # backwards-compatible alias


class CheckpointStore:
    """Persists per-realization progress for one (key, count, seed) run.

    Progress is held as the run's (count, A) depth matrix and (count, 7)
    parameter matrix with a completion mask; blocks of rows are recorded
    and shards written and read as matrices.
    """

    def __init__(
        self,
        run_dir: str | Path,
        key: str,
        count: int,
        seed: int | None,
        scenario_name: str,
        asset_names: Sequence[str],
        shard_size: int = DEFAULT_SHARD_SIZE,
        flush_interval: int | None = None,
    ) -> None:
        if count < 1:
            raise CheckpointCorruptError("checkpointed run needs at least one task")
        if shard_size < 1:
            raise CheckpointCorruptError("shard size must be at least 1")
        self.run_dir = Path(run_dir)
        self.key = key
        self.count = count
        self.seed = seed
        self.scenario_name = scenario_name
        self.asset_names = tuple(asset_names)
        self.shard_size = shard_size
        # How many newly recorded realizations may sit only in memory
        # before partial shards are flushed to disk.
        self.flush_interval = flush_interval or shard_size
        self.depths = np.zeros((count, len(self.asset_names)))
        self.params = np.zeros((count, len(PARAM_COLUMNS)))
        self._done = np.zeros(count, dtype=bool)
        self._dirty_blocks: set[int] = set()
        self._unflushed = 0

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------
    @property
    def manifest_path(self) -> Path:
        return self.run_dir / "manifest.json"

    def shard_path(self, block: int) -> Path:
        return self.run_dir / f"shard-{block:05d}.npz"

    def _block_slice(self, block: int) -> slice:
        start = block * self.shard_size
        return slice(start, min(start + self.shard_size, self.count))

    # ------------------------------------------------------------------
    # Recording progress
    # ------------------------------------------------------------------
    def completed_indices(self) -> frozenset[int]:
        return frozenset(np.flatnonzero(self._done).tolist())

    def is_complete(self) -> bool:
        return bool(self._done.all())

    def record(self, indices: Sequence[int], depths: np.ndarray, params: np.ndarray) -> None:
        """Accept completed rows; flush shards as blocks fill.

        Row ``r`` of ``depths`` and ``params`` is realization
        ``indices[r]``.  Rows already recorded are kept as they are.
        """
        index = np.asarray(indices, dtype=np.int64).reshape(-1)
        if index.size and (index.min() < 0 or index.max() >= self.count):
            raise CheckpointCorruptError(
                f"realization indices outside run of {self.count}"
            )
        new = ~self._done[index]
        index = index[new]
        if not index.size:
            return
        self.depths[index] = np.asarray(depths)[new]
        self.params[index] = np.asarray(params)[new]
        self._done[index] = True
        blocks = set((index // self.shard_size).tolist())
        self._dirty_blocks |= blocks
        self._unflushed += len(index)
        block_done = any(self._done[self._block_slice(b)].all() for b in blocks)
        if block_done or self._unflushed >= self.flush_interval:
            self.flush()

    def flush(self) -> None:
        """Write every dirty shard and the manifest, all atomically."""
        if not self._dirty_blocks:
            return
        self.run_dir.mkdir(parents=True, exist_ok=True)
        for block in sorted(self._dirty_blocks):
            self._write_shard(block)
        self._dirty_blocks.clear()
        self._unflushed = 0
        self._write_manifest()

    def _write_shard(self, block: int) -> None:
        span = self._block_slice(block)
        indices = np.flatnonzero(self._done[span]) + span.start
        if not indices.size:
            return
        with atomic_path(self.shard_path(block)) as tmp:
            with tmp.open("wb") as handle:
                np.savez_compressed(
                    handle,
                    indices=indices.astype(np.int64),
                    depths=self.depths[indices],
                    params=self.params[indices],
                )

    def _write_manifest(self) -> None:
        shards = {}
        for block in range((self.count + self.shard_size - 1) // self.shard_size):
            path = self.shard_path(block)
            if not path.exists():
                continue
            shards[str(block)] = {
                "file": path.name,
                "rows": int(self._done[self._block_slice(block)].sum()),
                "sha256": _sha256_of(path),
            }
        manifest = {
            "format": CHECKPOINT_FORMAT_VERSION,
            "key": self.key,
            "count": self.count,
            "seed": self.seed,
            "scenario_name": self.scenario_name,
            "shard_size": self.shard_size,
            "asset_names": list(self.asset_names),
            "completed": int(self._done.sum()),
            "shards": shards,
        }
        atomic_write_text(self.manifest_path, json.dumps(manifest, indent=2))

    # ------------------------------------------------------------------
    # Loading / resuming
    # ------------------------------------------------------------------
    def load(self, expected_params: np.ndarray | None = None) -> np.ndarray:
        """Recover verified progress from disk into the store.

        ``expected_params`` is the recomputed serial parameter pass (the
        run's (count, 7) parameter matrix); any shard whose stored rows do
        not match it bit-for-bit is quarantined, as are shards with bad
        checksums, undecodable contents, out-of-range indices, or
        non-finite depths or parameters.  Returns the sorted indices of
        the surviving realizations, whose rows now sit in :attr:`depths`
        and :attr:`params` (and are retained, so subsequent flushes keep
        them on disk).
        """
        self._done[:] = False
        self._dirty_blocks.clear()
        self._unflushed = 0
        if not self.manifest_path.exists():
            return self._loaded()
        try:
            manifest = json.loads(self.manifest_path.read_text())
            ok = (
                manifest["format"] == CHECKPOINT_FORMAT_VERSION
                and manifest["key"] == self.key
                and manifest["count"] == self.count
                and manifest["seed"] == self.seed
                and manifest["shard_size"] == self.shard_size
                and tuple(manifest["asset_names"] or ()) == self.asset_names
            )
        except (json.JSONDecodeError, KeyError, TypeError, OSError) as exc:
            quarantine_file(self.manifest_path, f"unreadable manifest: {exc}")
            return self._loaded()
        if not ok:
            quarantine_file(self.manifest_path, "manifest does not match this run")
            return self._loaded()
        for block_label, entry in sorted(manifest.get("shards", {}).items()):
            try:
                block = int(block_label)
                self._load_shard(block, entry, expected_params)
            except CheckpointCorruptError as exc:
                path = self.run_dir / str(entry.get("file", f"shard-{block_label}"))
                if path.exists():
                    quarantine_file(path, str(exc))
        return self._loaded()

    def _loaded(self) -> np.ndarray:
        return np.flatnonzero(self._done)

    def _load_shard(self, block: int, entry: dict, expected_params) -> None:
        """Verify one shard as a whole, then take its rows."""
        path = self.run_dir / entry["file"]
        if not path.exists():
            raise CheckpointCorruptError(f"shard file {entry['file']} missing")
        if _sha256_of(path) != entry.get("sha256"):
            raise CheckpointCorruptError("shard checksum mismatch")
        try:
            with np.load(path) as data:
                indices = data["indices"]
                depths = data["depths"]
                params = data["params"]
            finite = np.isfinite(depths).all() and np.isfinite(params).all()
        except Exception as exc:  # zipfile/np errors: torn write survived checksum?
            raise CheckpointCorruptError(f"undecodable shard: {exc}") from exc
        n = len(indices)
        if (
            indices.ndim != 1
            or indices.dtype.kind not in "iu"
            or depths.shape != (n, len(self.asset_names))
            or params.shape != (n, len(PARAM_COLUMNS))
        ):
            raise CheckpointCorruptError("shard array shapes inconsistent")
        if not finite:
            raise CheckpointCorruptError("non-finite depths or parameters in shard")
        span = self._block_slice(block)
        outside = (indices < span.start) | (indices >= span.stop)
        if outside.any():
            raise CheckpointCorruptError(
                f"index {int(indices[outside][0])} outside shard block {block}"
            )
        if expected_params is not None:
            drift = (params != np.asarray(expected_params)[indices]).any(axis=1)
            if drift.any():
                raise CheckpointCorruptError(
                    f"stored parameters for realization {int(indices[drift][0])} "
                    "diverge from the deterministic parameter pass"
                )
        self.depths[indices] = depths
        self.params[indices] = params
        self._done[indices] = True

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Forget in-memory and on-disk progress (a fresh, non-resumed run)."""
        self._done[:] = False
        self._dirty_blocks.clear()
        self._unflushed = 0
        if self.run_dir.exists():
            shutil.rmtree(self.run_dir)

    def discard(self) -> None:
        """Delete the run directory (called once the final artifact exists)."""
        if self.run_dir.exists():
            shutil.rmtree(self.run_dir)
