"""Ensemble-generation throughput benchmark -> BENCH_ensemble.json.

Times the standard Oahu ensemble through two independent pipelines:

- ``reference`` -- the seed baseline, one realization at a time: the
  original per-timestep Python surge loop (``SurgeModel.run_reference``),
  shoreline smoothing by its definition (a plain-Python mean of the
  positive readings in each clipped window), then one matrix-vector
  inland extension, serial.
- ``block`` -- ``generate()``: the run controller driving the block
  kernel (``EnsembleGenerator.realize_block``), serial.

and reports realizations/sec plus the speedup.  The two are
bitwise-identical (asserted here and in the test suite), so the speedup
is free.

It also *guards the observability layer's disabled cost*: the full
``generate()`` path (run controller + null observer, the default) is
timed against a bare ``realize_block()`` loop over the same blocks (the
same parameter rows and replayed dropout draws) with no controller,
supervision or telemetry at all, and the script fails if the overhead
exceeds ``--max-overhead``
(3% by default).  An enabled-observer run is timed alongside for
comparison.

It likewise guards the *threat chain's scalar adapter*: a
``batch=False`` cell, which dispatches every realization through
``ThreatChain.run_scalar``, is timed against the hardcoded pre-refactor
three-step body, failing past ``--max-chain-overhead`` (3% by default).
Overhead fractions are computed from *paired* interleaved rounds (see
:func:`measure_observer_overhead`).

Finally it times the fused *batched executor* over the paper's full
(scenario x architecture) matrix against the per-realization oracle,
refusing to report unless the two are bitwise identical (and, at the
standard count, unless the golden 93/1000 RED split holds).  Run from
the repo root::

    PYTHONPATH=src python scripts/bench_ensemble.py [--count 1000] [--output BENCH_ensemble.json]
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import time
from pathlib import Path

import numpy as np

from repro.hazards.hurricane.ensemble import params_from_row
from repro.hazards.hurricane.inundation import smooth_shoreline_reference
from repro.hazards.hurricane.standard import DEFAULT_SEED, standard_oahu_generator
from repro.obs import Observability, activate
from repro.runtime.streams import SpawnedStreams


def time_generation(generator, count: int, seed: int) -> tuple[float, object]:
    start = time.perf_counter()
    ensemble = generator.generate(count=count, seed=seed)
    return time.perf_counter() - start, ensemble


def time_raw_loop(generator, count: int, seed: int) -> tuple[float, np.ndarray]:
    """The un-supervised, un-instrumented baseline: a bare realize_block() loop.

    Each block gets its parameter rows and its replayed dropout draws,
    the inputs the run controller hands the kernel.
    """
    start = time.perf_counter()
    params = generator.sample_all_parameters(count, seed)
    streams = SpawnedStreams(seed)
    rows = generator.block_rows
    depths = [
        generator.realize_block(
            params[first:first + rows],
            streams.uniforms(range(first, min(first + rows, count)), generator.mesh_size),
        )
        for first in range(0, count, rows)
    ]
    return time.perf_counter() - start, np.concatenate(depths)


def time_reference(generator, count: int, seed: int) -> tuple[float, np.ndarray]:
    """The per-realization reference pipeline; returns its depth matrix.

    Its dropout draws come from numpy's own spawned generators, so the
    comparison also checks the block replay of those streams.
    """
    start = time.perf_counter()
    params = generator.sample_all_parameters(count, seed)
    seqs = np.random.SeedSequence(seed).spawn(count)
    surge, mapper = generator._surge, generator._mapper
    window = mapper.params.smoothing_window
    rows = []
    for i, p in enumerate(params):
        track = params_from_row(p).to_track(f"{generator.scenario.name}-r{i}")
        peak = surge.run_reference(track, np.random.default_rng(seqs[i])).peak_wse_m
        smoothed = smooth_shoreline_reference(generator._mesh, peak, window)
        rows.append(np.maximum(0.0, mapper._weights @ smoothed - mapper._elevations))
    return time.perf_counter() - start, np.array(rows)


def measure_observer_overhead(
    generator, count: int, seed: int, repeats: int = 5
) -> dict:
    """Disabled- and enabled-observer cost relative to the raw loop.

    The three variants are timed in interleaved rounds (raw, disabled,
    enabled, raw, disabled, ...) after one untimed warm-up, and the
    overhead fraction is computed *per round* -- ``disabled_i / raw_i - 1``
    against the raw timing from the *same* round -- with the guard taken
    over the best (minimum) paired fraction.  Taking each variant's best
    round independently pairs timings from different patches of machine
    time, which routinely produced nonsense (negative) fractions: the
    raw loop's luckiest round was compared against the supervised path's
    luckiest, entirely different, round.  Pairing within a round cancels
    the shared noise; best-of-N then discards rounds degraded as a
    whole.
    """

    def timed_raw() -> float:
        return time_raw_loop(generator, count, seed)[0]

    def timed_disabled() -> float:
        return time_generation(generator, count, seed)[0]

    def timed_enabled() -> float:
        with activate(Observability()):
            return time_generation(generator, count, seed)[0]

    variants = (timed_raw, timed_disabled, timed_enabled)
    for fn in variants:  # warm-up: touch every code path once, untimed
        fn()
    rounds: list[tuple[float, float, float]] = []
    for _ in range(repeats):
        rounds.append(tuple(fn() for fn in variants))
    disabled_fracs = [d / r - 1.0 for r, d, _ in rounds]
    enabled_fracs = [e / r - 1.0 for r, _, e in rounds]
    raw_s = min(r for r, _, _ in rounds)
    disabled_s = min(d for _, d, _ in rounds)
    enabled_s = min(e for _, _, e in rounds)
    return {
        "count": count,
        "repeats": repeats,
        "timing": "paired-per-round, best-of-N fraction",
        "raw_loop_seconds": round(raw_s, 4),
        "disabled_seconds": round(disabled_s, 4),
        "enabled_seconds": round(enabled_s, 4),
        "disabled_overhead_frac": round(min(disabled_fracs), 4),
        "enabled_overhead_frac": round(min(enabled_fracs), 4),
    }


def measure_chain_overhead(ensemble, repeats: int = 5) -> dict:
    """The scalar adapter's cost relative to the pre-refactor loop.

    A ``batch=False`` cell runs each realization through the configured
    :class:`ThreatChain`'s scalar adapter; the baseline below is the
    historical hardcoded three-step body (fragility -> attack ->
    classify) inlined over the same failed sets the adapter reads (the
    rows of the cell's memoized failure matrix), so the delta is purely
    the adapter's dispatch.  Paired interleaved rounds, as in
    :func:`measure_observer_overhead`.  The batched executor is a
    different algorithm entirely and is measured by
    :func:`measure_batched_speedup`.
    """
    import numpy as np

    from repro.core.evaluator import evaluate
    from repro.core.outcomes import OperationalProfile
    from repro.core.pipeline import CompoundThreatAnalysis
    from repro.core.system_state import initial_state
    from repro.core.threat import PAPER_SCENARIOS
    from repro.scada.architectures import get_architecture
    from repro.scada.placement import PLACEMENT_WAIAU

    analysis = CompoundThreatAnalysis(ensemble, batch=False)
    architecture = get_architecture("6+6+6")
    scenario = PAPER_SCENARIOS[-1]
    attacker = analysis.attacker

    def timed_hardcoded() -> float:
        start = time.perf_counter()
        rng = np.random.default_rng(analysis._seed)
        bctx = analysis._batch_context(architecture, PLACEMENT_WAIAU, scenario)
        states = []
        for failed in bctx.failed_sets():
            state = initial_state(architecture, PLACEMENT_WAIAU, failed)
            state = attacker.attack(state, scenario.budget, rng)
            states.append(evaluate(state))
        OperationalProfile.from_states(states)
        return time.perf_counter() - start

    def timed_chained() -> float:
        start = time.perf_counter()
        analysis.run(architecture, PLACEMENT_WAIAU, scenario)
        return time.perf_counter() - start

    variants = (timed_hardcoded, timed_chained)
    for fn in variants:  # warm-up (also fills the failure-matrix memo)
        fn()
    rounds = [tuple(fn() for fn in variants) for _ in range(repeats)]
    fracs = [c / h - 1.0 for h, c in rounds]
    return {
        "count": len(ensemble),
        "repeats": repeats,
        "timing": "paired-per-round, best-of-N fraction",
        "hardcoded_seconds": round(min(h for h, _ in rounds), 4),
        "chained_seconds": round(min(c for _, c in rounds), 4),
        "chain_overhead_frac": round(min(fracs), 4),
    }


def measure_batched_speedup(ensemble, repeats: int = 3) -> dict:
    """The fused batched executor against the per-realization oracle.

    Runs the paper's full (scenario x architecture) matrix both ways,
    proves profile-level bitwise identity cell by cell, and -- at the
    standard count of 1000 -- re-checks the paper's golden split (93/1000
    RED for ``hurricane+intrusion`` on ``2-2``).
    """
    from repro.core.pipeline import CompoundThreatAnalysis
    from repro.core.states import OperationalState
    from repro.core.threat import PAPER_SCENARIOS
    from repro.scada.architectures import PAPER_CONFIGURATIONS
    from repro.scada.placement import PLACEMENT_WAIAU

    oracle = CompoundThreatAnalysis(ensemble, batch=False)
    batched = CompoundThreatAnalysis(ensemble, batch=True)
    args = (list(PAPER_CONFIGURATIONS), PLACEMENT_WAIAU, list(PAPER_SCENARIOS))

    oracle_matrix = batched_matrix = None
    oracle_s = batched_s = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        oracle_matrix = oracle.run_matrix(*args)
        oracle_s = min(oracle_s, time.perf_counter() - start)
        start = time.perf_counter()
        batched_matrix = batched.run_matrix(*args)
        batched_s = min(batched_s, time.perf_counter() - start)

    identical = all(
        oracle_matrix.get(s.name, a.name) == batched_matrix.get(s.name, a.name)
        for s in PAPER_SCENARIOS
        for a in PAPER_CONFIGURATIONS
    )
    if not identical:
        raise SystemExit(
            "batched executor disagrees with the per-realization oracle"
        )
    if len(ensemble) == 1000:
        profile = batched_matrix.get("hurricane+intrusion", "2-2")
        if profile.count(OperationalState.RED) != 93:
            raise SystemExit(
                "batched executor broke the golden 93/1000 RED split"
            )
    cells = len(PAPER_SCENARIOS) * len(PAPER_CONFIGURATIONS)
    return {
        "count": len(ensemble),
        "cells": cells,
        "repeats": repeats,
        "per_realization_seconds": round(oracle_s, 4),
        "batched_seconds": round(batched_s, 4),
        "speedup": round(oracle_s / batched_s, 1),
        "bitwise_identical": identical,
        "golden_checked": len(ensemble) == 1000,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--output", default="BENCH_ensemble.json")
    parser.add_argument(
        "--max-overhead",
        type=float,
        default=0.03,
        help="fail if the disabled-observer generate() path is more than "
        "this fraction slower than the bare realize_block() loop",
    )
    parser.add_argument(
        "--overhead-count",
        type=int,
        default=None,
        help="realizations for the overhead check (default: --count)",
    )
    parser.add_argument(
        "--max-chain-overhead",
        type=float,
        default=0.03,
        help="fail if the chain executor is more than this fraction slower "
        "than the hardcoded pre-refactor analysis loop",
    )
    args = parser.parse_args(argv)

    generator = standard_oahu_generator()

    print(f"generating {args.count} realizations per pipeline (seed {args.seed}) ...")
    ref_s, ref_depths = time_reference(generator, args.count, args.seed)
    block_s, ensemble = time_generation(generator, args.count, args.seed)

    identical = bool(np.array_equal(ref_depths, ensemble.depth_matrix()))
    if not identical:
        raise SystemExit("pipelines disagree -- refusing to report a speedup")

    overhead_count = args.overhead_count or args.count
    print(
        f"measuring observer overhead over {overhead_count} realizations "
        f"(budget: {args.max_overhead:.0%} with observers disabled) ..."
    )
    observability = measure_observer_overhead(generator, overhead_count, args.seed)
    observability["max_overhead_frac"] = args.max_overhead

    print(
        f"measuring threat-chain executor overhead over {args.count} "
        f"realizations (budget: {args.max_chain_overhead:.0%}) ..."
    )
    chain = measure_chain_overhead(ensemble)
    chain["max_chain_overhead_frac"] = args.max_chain_overhead

    print(
        f"measuring batched-executor speedup over the full matrix "
        f"({args.count} realizations) ..."
    )
    batched = measure_batched_speedup(ensemble)

    report = {
        "count": args.count,
        "seed": args.seed,
        "mesh_nodes": generator.mesh_size,
        "block_rows": generator.block_rows,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "kernels": {
            "reference": {
                "seconds": round(ref_s, 3),
                "realizations_per_sec": round(args.count / ref_s, 1),
            },
            "block": {
                "seconds": round(block_s, 3),
                "realizations_per_sec": round(args.count / block_s, 1),
            },
        },
        "speedup": round(ref_s / block_s, 2),
        "bitwise_identical": identical,
        "observability": observability,
        "threat_chain": chain,
        "batched_executor": batched,
    }
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"wrote {args.output}")
    if observability["disabled_overhead_frac"] > args.max_overhead:
        raise SystemExit(
            f"disabled-observer overhead "
            f"{observability['disabled_overhead_frac']:.1%} exceeds the "
            f"{args.max_overhead:.0%} budget"
        )
    if chain["chain_overhead_frac"] > args.max_chain_overhead:
        raise SystemExit(
            f"threat-chain executor overhead "
            f"{chain['chain_overhead_frac']:.1%} exceeds the "
            f"{args.max_chain_overhead:.0%} budget"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
