"""In-place generation transport benchmark -> BENCH_generation.json.

PR 10 pointed the shared-memory transport at *generation*: pooled
workers now write each realization's depth row straight into a
parent-owned :class:`~repro.io.shared_ensemble.DepthShardBoard` and
return only a light index payload, instead of pickling the whole
per-asset depth mapping back through the result pipe.  This script
proves the claim end to end:

1. **Scale the asset axis**: the paper's Oahu catalog is replicated
   (``--replicas``) into a many-hundred-asset synthetic catalog -- the
   regime the 1M-realization roadmap target lives in, where the pickled
   result payload is what the parent actually chokes on -- on a coarse
   mesh (``--mesh-spacing``) so surge stays cheap.
2. **Time** pooled generation through both transports (``pickle``, the
   historical baseline, and ``inplace``) over interleaved rounds,
   reporting realizations/s for each.
3. **Verify** the two ensembles are bit-for-bit identical (depth
   matrices and storm parameters) and that the in-place run's depth
   matrix is private memory, not the released board, then fail unless
   ``pickled_s / inplace_s`` clears ``--min-ratio``.

Run from the repo root::

    PYTHONPATH=src python scripts/bench_generation.py [--count 600] [--replicas 60]

CI runs a reduced smoke (see ``.github/workflows``); the committed
``BENCH_generation.json`` comes from the full default run.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import platform
import time
from pathlib import Path

import numpy as np

from repro.geo import build_oahu_catalog, build_oahu_region
from repro.geo.catalog import AssetCatalog
from repro.geo.coords import destination_point
from repro.hazards.hurricane.ensemble import EnsembleGenerator
from repro.hazards.hurricane.standard import (
    DEFAULT_SEED,
    standard_oahu_scenario,
)
from repro.runtime.controller import RunController


def replicated_catalog(replicas: int) -> AssetCatalog:
    """The Oahu catalog tiled ``replicas`` times with jittered positions.

    Each clone keeps its template's elevation and role but shifts a few
    hundred meters along a deterministic bearing, giving distinct (but
    physically sensible) inundation columns.  Only generation cares
    here -- the point is a wide depth row, not a plausible grid.
    """
    base = build_oahu_catalog()
    records = []
    for k in range(replicas):
        for record in base:
            if k == 0:
                records.append(record)
                continue
            moved = destination_point(
                record.location, bearing_deg=(37.0 * k) % 360.0, distance_km=0.2 * k
            )
            records.append(
                dataclasses.replace(
                    record, name=f"{record.name} [{k}]", location=moved
                )
            )
    return AssetCatalog.from_records(f"{base.region_name} x{replicas}", records)


def build_generator(replicas: int, mesh_spacing_km: float) -> EnsembleGenerator:
    return EnsembleGenerator(
        region=build_oahu_region(),
        catalog=replicated_catalog(replicas),
        scenario=standard_oahu_scenario(),
        mesh_spacing_km=mesh_spacing_km,
    )


def timed_run(generator, count, seed, n_jobs, transport):
    controller = RunController(
        generator, count=count, seed=seed, n_jobs=n_jobs, transport=transport
    )
    start = time.perf_counter()
    ensemble = controller.run()
    return time.perf_counter() - start, ensemble


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=600)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument(
        "--replicas",
        type=int,
        default=60,
        help="Oahu-catalog copies; sets the asset (row-width) axis",
    )
    parser.add_argument("--mesh-spacing", type=float, default=12.0)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument(
        "--min-ratio",
        type=float,
        default=1.0,
        help="fail unless pickled_seconds / inplace_seconds clears this",
    )
    parser.add_argument("--output", default="BENCH_generation.json")
    args = parser.parse_args(argv)

    generator = build_generator(args.replicas, args.mesh_spacing)
    n_assets = len(generator.asset_order)
    print(
        f"generating {args.count} realizations x {n_assets} assets "
        f"({generator.mesh_size}-node mesh, {args.jobs} workers, "
        f"seed {args.seed}), {args.rounds} rounds per transport ..."
    )

    pickled_s = inplace_s = float("inf")
    pickled_ensemble = inplace_ensemble = None
    # Warm-up: one untimed run per transport (imports, page cache, forks).
    timed_run(generator, args.count, args.seed, args.jobs, "pickle")
    timed_run(generator, args.count, args.seed, args.jobs, "inplace")
    for _ in range(args.rounds):
        seconds, pickled_ensemble = timed_run(
            generator, args.count, args.seed, args.jobs, "pickle"
        )
        pickled_s = min(pickled_s, seconds)
        seconds, inplace_ensemble = timed_run(
            generator, args.count, args.seed, args.jobs, "inplace"
        )
        inplace_s = min(inplace_s, seconds)

    identical = bool(
        np.array_equal(
            pickled_ensemble.depth_matrix(), inplace_ensemble.depth_matrix()
        )
    ) and [r.params for r in pickled_ensemble] == [
        r.params for r in inplace_ensemble
    ]
    if not identical:
        raise SystemExit(
            "transports disagree -- refusing to report a speedup"
        )
    owner = inplace_ensemble.depth_view()
    while isinstance(owner.base, np.ndarray):
        owner = owner.base
    if not owner.flags.owndata:
        raise SystemExit("in-place run's depth matrix still points at the board")

    ratio = pickled_s / inplace_s
    report = {
        "count": args.count,
        "seed": args.seed,
        "n_jobs": args.jobs,
        "assets": n_assets,
        "mesh_nodes": generator.mesh_size,
        "rounds": args.rounds,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "pickle": {
            "seconds": round(pickled_s, 3),
            "realizations_per_sec": round(args.count / pickled_s, 1),
        },
        "inplace": {
            "seconds": round(inplace_s, 3),
            "realizations_per_sec": round(args.count / inplace_s, 1),
        },
        "speedup_ratio": round(ratio, 3),
        "min_ratio": args.min_ratio,
        "bitwise_identical": identical,
        "depth_cache_primed": True,
    }
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"wrote {args.output}")
    if ratio < args.min_ratio:
        raise SystemExit(
            f"in-place transport ratio {ratio:.3f}x is below the "
            f"{args.min_ratio:.2f}x floor"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
