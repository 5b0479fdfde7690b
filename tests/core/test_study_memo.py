"""Per-damage-pattern results live in the study memo, not on shared stages."""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro
from repro import get_chain


def grid_coupled(ensemble, seed: int, **overrides) -> repro.StudyConfig:
    return repro.StudyConfig(
        ensemble=ensemble,
        chain="grid-coupled",
        fragility=repro.LogisticFragility(steepness_per_m=4.0),
        attacker=repro.ProbabilisticAttacker(p_intrusion=0.7, p_isolation=0.7),
        analysis_seed=seed,
        **overrides,
    )


def stage_state(chain) -> list[dict]:
    """Each stage's attributes: container sizes, or the object's identity."""
    return [
        {
            name: len(value) if hasattr(value, "__len__") else id(value)
            for name, value in vars(stage).items()
        }
        for stage in chain.stages
    ]


def test_threads_on_the_registered_chain_match_serial_runs(standard_ensemble):
    # Four studies share the registered chain's stage instances with the
    # main thread; a shortened switch interval interleaves them finely.
    seeds = (101, 102, 103, 104)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = {
                seed: pool.submit(repro.run_study, grid_coupled(standard_ensemble, seed))
                for seed in seeds
            }
            serial = {
                seed: repro.run_study(grid_coupled(standard_ensemble, seed)).matrix.to_rows()
                for seed in seeds
            }
            threaded = {
                seed: future.result(timeout=120).matrix.to_rows()
                for seed, future in futures.items()
            }
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


@pytest.mark.parametrize(
    "chain_name, overrides",
    [
        ("grid-coupled", {}),
        # The tail-risk stages only compute on the scalar adapter.
        (
            "tail-risk",
            {"batch": False, "configurations": ["2"], "scenarios": ["hurricane"]},
        ),
    ],
)
def test_registered_stages_keep_no_per_study_state(small_ensemble, chain_name, overrides):
    chain = get_chain(chain_name)

    def study(seed: int):
        config = grid_coupled(small_ensemble, seed, **overrides)
        return repro.run_study(
            repro.StudyConfig(**{**vars(config), "chain": chain_name})
        )

    first = study(0)
    counters = first.manifest["metrics"]["counters"]
    assert counters["pipeline.coupling_cache.miss"] > 0
    before = stage_state(chain)
    for seed in range(1, 10):
        study(seed)
    assert stage_state(chain) == before
