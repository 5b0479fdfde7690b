"""Run manifests: one JSON record of what a run was and what it did.

Every :func:`repro.api.run_study` call can emit a ``run_manifest.json``
capturing enough to reproduce and audit the run:

* identity -- the config hash, seed, realization count, and scenario /
  architecture / placement names;
* provenance -- package, Python, and numpy versions, platform;
* behavior -- wall-clock seconds per pipeline stage (from the trace
  tree), the full metric snapshot (retry / cache / runtime counters),
  and the bounded structured event log.

Writers here **never raise into the pipeline**: a manifest or metrics
file that cannot be written warns (:class:`ObservabilityWriteWarning`)
and the run's actual results are returned unharmed.  Successful writes
go through the same atomic tmp+rename writers as every other artifact
(:mod:`repro.io.atomic`), so a manifest on disk is never torn.
"""

from __future__ import annotations

import json
import platform
import warnings
from pathlib import Path

from repro.io.atomic import atomic_write_text
from repro.obs.observer import Observability, NullObservability

MANIFEST_SCHEMA_VERSION = 1

#: Keys every run manifest carries (locked by a golden schema test).
MANIFEST_REQUIRED_KEYS = frozenset(
    {
        "schema_version",
        "kind",
        "config_hash",
        "seed",
        "n_realizations",
        "configurations",
        "scenarios",
        "placement",
        "chain",
        "region",
        "hazard",
        "versions",
        "started_at_unix_s",
        "wall_clock_s",
        "stages",
        "metrics",
        "events",
        "events_dropped",
    }
)


class ObservabilityWriteWarning(RuntimeWarning):
    """A metrics/trace/manifest artifact could not be written; run continues."""


def build_run_manifest(
    *,
    config_hash: str,
    seed: int,
    n_realizations: int,
    configurations: list[str],
    scenarios: list[str],
    placement: str,
    chain: dict | None = None,
    region: str | None = None,
    hazard: str | None = None,
    obs: Observability | NullObservability,
    wall_clock_s: float,
) -> dict:
    """Assemble the manifest dict from run identity plus the observer."""
    import numpy
    import repro

    if obs.enabled:
        stages = obs.tracer.stage_durations()
        metrics = obs.metrics.snapshot()
        events = obs.events.to_list()
        events_dropped = obs.events.dropped
        started_at = obs.tracer.started_at
    else:
        stages, metrics, events, events_dropped = {}, {}, [], 0
        started_at = None
    return {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "kind": "repro.run_manifest",
        "config_hash": config_hash,
        "seed": seed,
        "n_realizations": n_realizations,
        "configurations": list(configurations),
        "scenarios": list(scenarios),
        "placement": placement,
        # The resolved threat-chain spec (name + per-stage determinism),
        # or None for runs without a per-realization chain (timelines).
        "chain": chain,
        # Scenario-catalog selection, or None for the classic Oahu path.
        "region": region,
        "hazard": hazard,
        "versions": {
            "repro": repro.__version__,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
        },
        "started_at_unix_s": started_at,
        "wall_clock_s": round(wall_clock_s, 6),
        "stages": {name: round(s, 6) for name, s in sorted(stages.items())},
        "metrics": metrics,
        "events": events,
        "events_dropped": events_dropped,
    }


def write_json_artifact(path: str | Path, payload: dict, what: str) -> Path | None:
    """Atomically write ``payload`` as JSON; warn (never raise) on failure.

    Telemetry output is strictly best-effort: losing a metrics file must
    not lose the analysis that produced it.  Returns the written path,
    or ``None`` if the write failed.
    """
    target = Path(path)
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(target, json.dumps(payload, indent=2) + "\n")
    except (OSError, TypeError, ValueError) as exc:
        warnings.warn(
            f"could not write {what} to {str(target)!r}: {exc}; continuing",
            ObservabilityWriteWarning,
            stacklevel=2,
        )
        return None
    return target


def write_run_manifest(path: str | Path, manifest: dict) -> Path | None:
    """Write a run manifest atomically; warn and continue on failure."""
    return write_json_artifact(path, manifest, "run manifest")


def format_run_report(manifest: dict) -> str:
    """Render a manifest as a human-readable run report."""
    lines = [
        "Run report",
        "==========",
        f"config hash:    {manifest['config_hash']}",
        f"seed:           {manifest['seed']}",
        f"realizations:   {manifest['n_realizations']}",
        f"placement:      {manifest['placement']}",
        f"configurations: {', '.join(manifest['configurations'])}",
        f"scenarios:      {', '.join(manifest['scenarios'])}",
    ]
    chain = manifest.get("chain")
    if chain:
        stage_names = " -> ".join(s["name"] for s in chain.get("stages", []))
        lines.append(f"chain:          {chain['name']} ({stage_names})")
    lines += [
        f"versions:       repro {manifest['versions']['repro']}, "
        f"python {manifest['versions']['python']}, "
        f"numpy {manifest['versions']['numpy']}",
        f"wall clock:     {manifest['wall_clock_s']:.3f}s",
    ]
    stages = manifest.get("stages") or {}
    if stages:
        lines.append("")
        lines.append("Stage wall-clock (aggregated over the trace tree):")
        width = max(len(name) for name in stages)
        for name, seconds in sorted(
            stages.items(), key=lambda item: -item[1]
        ):
            lines.append(f"  {name:<{width}s}  {seconds:9.3f}s")
    counters = (manifest.get("metrics") or {}).get("counters") or {}
    fallbacks = counters.get("batch.fallback", 0)
    if fallbacks:
        # Why a run is on the slow path should not hide in the generic
        # counter dump: call out each scalar-loop fallback and its reason.
        prefix = "batch.fallback.reason."
        lines.append("")
        lines.append(
            f"Batch fallbacks: {fallbacks:g} cell(s) used the "
            "per-realization loop:"
        )
        for name in sorted(counters):
            if name.startswith(prefix):
                lines.append(
                    f"  {name[len(prefix):]}: {counters[name]:g}"
                )
    hits = counters.get("pipeline.coupling_cache.hit", 0)
    misses = counters.get("pipeline.coupling_cache.miss", 0)
    if hits or misses:
        # The grid stages' cache decision: a miss runs the kernel.
        lines.append("")
        lines.append(
            f"Coupling memo: {hits:g} hit / {misses:g} miss "
            f"({hits / (hits + misses):.1%} of damage-pattern lookups hit)"
        )
    if counters:
        lines.append("")
        lines.append("Counters:")
        width = max(len(name) for name in counters)
        for name in sorted(counters):
            lines.append(f"  {name:<{width}s}  {counters[name]:g}")
    histograms = (manifest.get("metrics") or {}).get("histograms") or {}
    if histograms:
        lines.append("")
        lines.append("Timings (histogram summaries):")
        for name in sorted(histograms):
            h = histograms[name]
            if not h["count"]:
                continue
            lines.append(
                f"  {name}: n={h['count']} mean={h['mean']:.6f} "
                f"min={h['min']:.6f} max={h['max']:.6f}"
            )
    events = manifest.get("events") or []
    if events:
        lines.append("")
        dropped = manifest.get("events_dropped", 0)
        suffix = f" (+{dropped} dropped)" if dropped else ""
        lines.append(f"Events ({len(events)}{suffix}):")
        for event in events[-20:]:
            detail = ", ".join(
                f"{k}={v}" for k, v in event.items() if k not in ("t_s", "kind")
            )
            lines.append(f"  [{event['t_s']:10.3f}s] {event['kind']}  {detail}")
    return "\n".join(lines)
