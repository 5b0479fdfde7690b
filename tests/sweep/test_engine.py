"""The sweep engine: dedup, parallelism, checkpoint/resume, identity."""

from __future__ import annotations

import json

import pytest

from repro.api import StudyConfig, run_study
from repro.core.states import OperationalState
from repro.errors import ConfigurationError
from repro.io.atomic import CorruptArtifactWarning
from repro.io.results_io import matrix_to_dict
from repro.sweep import run_sweep, sweep_grid, sweep_study_hash
from repro.sweep.engine import SWEEP_MANIFEST_FILENAME


def small_grid(**axes):
    base = StudyConfig(n_realizations=40)
    axes.setdefault("configurations", ["2", "2-2"])
    axes.setdefault("scenarios", ["hurricane", "hurricane+isolation"])
    return sweep_grid(base, **axes)


def counters(result):
    return result.observability.metrics.snapshot()["counters"]


def manifest_identity(manifest):
    return {k: v for k, v in manifest.items() if k != "telemetry"}


# ----------------------------------------------------------------------
# Deduplication
# ----------------------------------------------------------------------
def test_shared_hazard_generates_ensemble_exactly_once():
    result = run_sweep(small_grid())
    c = counters(result)
    assert c["sweep.ensemble.generated"] == 1
    assert c["sweep.ensemble.reused"] == len(result) - 1
    assert c["sweep.studies_completed"] == len(result)


def test_paper_matrix_single_acquisition_and_golden_split(standard_ensemble):
    """The acceptance grid: 5 architectures x 4 scenarios, one ensemble."""
    grid = sweep_grid(
        StudyConfig(ensemble=standard_ensemble),
        configurations=["2", "2-2", "6", "6-6", "6+6+6"],
        scenarios=[
            "hurricane",
            "hurricane+intrusion",
            "hurricane+isolation",
            "hurricane+intrusion+isolation",
        ],
    )
    result = run_sweep(grid)
    c = counters(result)
    assert c["sweep.ensemble.prebuilt"] == 1
    assert "sweep.ensemble.generated" not in c
    assert c["sweep.ensemble.reused"] == 19
    assert result.manifest["n_groups"] == 1
    # The golden data fact rides through the sweep unchanged: the "2"
    # architecture goes red exactly when Honolulu CC floods (93/1000).
    (cell,) = result.get(configurations=["2"], scenarios=["hurricane"])
    profile = cell.matrix.get("hurricane", "2")
    assert profile.counts[OperationalState.RED] == 93
    assert profile.probability(OperationalState.RED) == pytest.approx(0.093)
    # And each sweep cell equals an independent run_study() bit for bit.
    solo = run_study(cell.config)
    assert matrix_to_dict(solo.matrix) == matrix_to_dict(cell.matrix)


def test_distinct_seeds_form_distinct_groups():
    grid = small_grid(seed=[1, 2])
    result = run_sweep(grid)
    c = counters(result)
    assert c["sweep.ensemble.generated"] == 2
    assert result.manifest["n_groups"] == 2


def test_analysis_side_fields_do_not_split_groups():
    """Satellite property: dedup keys ignore analysis-only config fields."""
    base = StudyConfig(n_realizations=25)
    variants = [
        base,
        base.replace(configurations=("6-6",)),
        base.replace(scenarios=("hurricane",)),
        base.replace(placement="kahe"),
        base.replace(analysis_seed=1234),
        base.replace(jobs=4),
        base.replace(manifest_out="x.json"),
    ]
    keys = {v.cache_key() for v in variants}
    assert len(keys) == 1
    # While hazard-side fields do split.
    assert base.replace(seed=1).cache_key() not in keys
    assert base.replace(n_realizations=26).cache_key() not in keys


def test_chain_axis_shares_the_ensemble_and_records_chains():
    """A chain axis compares chains over one shared hazard ensemble."""
    grid = small_grid(
        configurations=["2"],
        scenarios=["hurricane+isolation"],
        chain=["paper", "grid-coupled"],
    )
    result = run_sweep(grid)
    c = counters(result)
    assert c["sweep.ensemble.generated"] == 1
    assert c["sweep.ensemble.reused"] == 1
    assert {s["chain"] for s in result.manifest["studies"].values()} == {
        "paper", "grid-coupled",
    }
    # Each cell equals an independent run_study of the same config.
    for cell in result.cells:
        solo = run_study(cell.config)
        assert matrix_to_dict(solo.matrix) == matrix_to_dict(cell.matrix)
    # The chain name is part of each cell's identity and a compare axis.
    (coupled,) = result.get(chain="grid-coupled")
    assert coupled.summary()["chain"] == "grid-coupled"
    comparison = result.compare("chain")
    assert comparison.axis == "chain"
    assert comparison.rows


def test_stochastic_chain_prefix_shares_one_failure_matrix():
    """One fragility pass per (ensemble group, model), stochastic chains too.

    The failure matrix is a pure function of the shared depth grid and
    the model, so even a scalar-only chain with a stochastic stage ahead
    of the hazard reads its failed sets from the group's one memo.
    """
    from repro.core.chain import CHAIN_PAPER, HazardImpactStage, ThreatChain

    class _CoinflipStage:
        name = "coinflip"
        deterministic = False

        def apply(self, state, ctx, rng):
            return state if state is not None else ctx.base_state()

    stochastic = ThreatChain(
        "stochastic-prefix", (_CoinflipStage(), *CHAIN_PAPER.stages)
    )
    base = StudyConfig(n_realizations=25, configurations=("2",))
    grid = [
        base.replace(scenarios=("hurricane",), chain=stochastic),
        base.replace(scenarios=("hurricane+isolation",), chain=stochastic),
    ]
    result = run_sweep(grid)
    c = counters(result)
    assert c["sweep.ensemble.generated"] == 1
    assert c["batch.fallback.reason.stage.coinflip"] == 2
    # One group, one model: one miss; the second study's cell hits.
    assert c["pipeline.matrix_cache.miss"] == 1
    assert c["pipeline.matrix_cache.hit"] == 1


def test_duplicate_studies_rejected():
    config = StudyConfig(n_realizations=20)
    with pytest.raises(ConfigurationError, match="duplicate study"):
        run_sweep([config, config.replace()])


def test_relabelled_prebuilt_ensembles_are_distinct_studies(small_ensemble):
    """Same depth bytes, different asset order: different hazard data."""
    from repro.geo import HONOLULU_CC, KAHE_CC
    from repro.io.shared_ensemble import ArrayBackedEnsemble

    names = small_ensemble.asset_names
    relabelled = list(names)
    i, j = names.index(HONOLULU_CC), names.index(KAHE_CC)
    relabelled[i], relabelled[j] = relabelled[j], relabelled[i]
    ca, cb = (
        StudyConfig(
            ensemble=ArrayBackedEnsemble(
                small_ensemble.scenario_name,
                seed=small_ensemble.seed,
                asset_names=labels,
                depths=small_ensemble.depth_view(),
            )
        )
        for labels in (names, relabelled)
    )
    assert ca.cache_key() != cb.cache_key()
    result = run_sweep([ca, cb])
    a, b = (matrix_to_dict(cell.matrix) for cell in result.cells)
    assert a == matrix_to_dict(run_study(ca).matrix)
    assert b == matrix_to_dict(run_study(cb).matrix)
    assert a != b


def test_empty_grid_and_bad_jobs_rejected():
    with pytest.raises(ConfigurationError, match="at least one"):
        run_sweep([])
    with pytest.raises(ConfigurationError, match="jobs"):
        run_sweep([StudyConfig(n_realizations=20)], jobs=0)


# ----------------------------------------------------------------------
# Parallel path
# ----------------------------------------------------------------------
def test_parallel_matches_serial_bit_for_bit():
    grid = small_grid()
    serial = run_sweep(grid, jobs=1)
    parallel = run_sweep(grid, jobs=2)
    for a, b in zip(serial.cells, parallel.cells):
        assert matrix_to_dict(a.matrix) == matrix_to_dict(b.matrix)
    # Worker metric snapshots merge into the parent observer.
    assert counters(parallel)["pipeline.realizations"] == counters(serial)[
        "pipeline.realizations"
    ]


def test_parallel_publishes_shared_memory_ensemble():
    parallel = run_sweep(small_grid(), jobs=2)
    c = counters(parallel)
    # Parent published one segment for the group; workers attached to it
    # (lazily, so the counter rode back in a task's metric snapshot).
    assert c["sweep.ensemble.shared_publish"] == 1
    assert c["sweep.ensemble.shared_attach"] >= 1
    assert "sweep.ensemble.shared_mmap" not in c
    serial = run_sweep(small_grid(), jobs=1)
    for a, b in zip(serial.cells, parallel.cells):
        assert matrix_to_dict(a.matrix) == matrix_to_dict(b.matrix)


def test_cached_group_parallel_maps_the_sidecar(tmp_path):
    grid = small_grid()
    grid = [c.replace(cache_dir=tmp_path) for c in grid]
    result = run_sweep(grid, jobs=2)
    c = counters(result)
    # The depth grid came straight off the cache sidecar: no shm segment
    # was published, workers memory-mapped the file.
    assert c["sweep.ensemble.shared_mmap"] == 1
    assert c["sweep.ensemble.shared_attach"] >= 1
    assert "sweep.ensemble.shared_publish" not in c


def test_unpicklable_but_shareable_ensemble_runs_parallel(small_ensemble):
    from repro.io.shared_ensemble import ArrayBackedEnsemble

    class LocalEnsemble(ArrayBackedEnsemble):
        """Local class: instances cannot pickle, but the grid can share."""

    prebuilt = LocalEnsemble(
        scenario_name=small_ensemble.scenario_name,
        depths=small_ensemble.depth_matrix(),
        asset_names=list(small_ensemble.asset_names),
        seed=small_ensemble.seed,
    )
    base = StudyConfig(ensemble=prebuilt)
    grid = sweep_grid(base, configurations=["2", "2-2"])
    result = run_sweep(grid, jobs=2)
    c = counters(result)
    assert c["sweep.ensemble.shared_publish"] == 1
    assert c["sweep.ensemble.shared_attach"] >= 1
    # No fallback event fired: the parallel path held.
    assert not result.observability.events.of_kind("sweep.parallel_fallback")
    # And the numbers equal the serial oracle.
    serial = run_sweep(grid, jobs=1)
    for a, b in zip(serial.cells, result.cells):
        assert matrix_to_dict(a.matrix) == matrix_to_dict(b.matrix)


def test_manifest_records_shared_attach_counter(tmp_path):
    result = run_sweep(small_grid(), jobs=2, sweep_dir=tmp_path)
    manifest = json.loads((tmp_path / SWEEP_MANIFEST_FILENAME).read_text())
    merged = manifest["telemetry"]["metrics"]["counters"]
    assert merged["sweep.ensemble.shared_attach"] >= 1
    assert merged["sweep.ensemble.shared_publish"] == 1
    assert counters(result)["sweep.ensemble.shared_attach"] == merged[
        "sweep.ensemble.shared_attach"
    ]


# ----------------------------------------------------------------------
# Checkpoint / resume
# ----------------------------------------------------------------------
def test_resume_requires_sweep_dir():
    with pytest.raises(ConfigurationError, match="sweep_dir"):
        run_sweep([StudyConfig(n_realizations=20)], resume=True)


def test_full_resume_skips_all_work(tmp_path):
    grid = small_grid()
    first = run_sweep(grid, sweep_dir=tmp_path)
    second = run_sweep(grid, sweep_dir=tmp_path, resume=True)
    c = counters(second)
    assert c["sweep.studies_resumed"] == len(grid)
    assert "sweep.ensemble.generated" not in c
    assert all(cell.resumed for cell in second.cells)
    for a, b in zip(first.cells, second.cells):
        assert matrix_to_dict(a.matrix) == matrix_to_dict(b.matrix)
    assert manifest_identity(first.manifest) == manifest_identity(second.manifest)


def test_partial_resume_runs_only_missing_studies(tmp_path):
    grid = small_grid()
    first = run_sweep(grid, sweep_dir=tmp_path)
    # Simulate an interruption: one finished study vanishes from disk.
    (tmp_path / f"study-{first.cells[1].study_hash}.json").unlink()
    second = run_sweep(grid, sweep_dir=tmp_path, resume=True)
    c = counters(second)
    assert c["sweep.studies_resumed"] == len(grid) - 1
    assert c["sweep.studies_completed"] == 1
    assert manifest_identity(first.manifest) == manifest_identity(second.manifest)
    assert matrix_to_dict(second.cells[1].matrix) == matrix_to_dict(
        first.cells[1].matrix
    )


def test_corrupt_shard_quarantined_and_rerun(tmp_path):
    grid = small_grid()
    first = run_sweep(grid, sweep_dir=tmp_path)
    shard = tmp_path / f"study-{first.cells[0].study_hash}.json"
    shard.write_text(shard.read_text().replace('"counts"', '"trashed"', 1))
    with pytest.warns(CorruptArtifactWarning):
        second = run_sweep(grid, sweep_dir=tmp_path, resume=True)
    assert counters(second)["sweep.studies_resumed"] == len(grid) - 1
    assert shard.with_suffix(".json.corrupt").exists()
    assert matrix_to_dict(second.cells[0].matrix) == matrix_to_dict(
        first.cells[0].matrix
    )


def test_resume_without_prior_state_runs_everything(tmp_path):
    grid = small_grid()
    result = run_sweep(grid, sweep_dir=tmp_path / "fresh", resume=True)
    c = counters(result)
    assert "sweep.studies_resumed" not in c
    assert c["sweep.studies_completed"] == len(grid)


def test_manifest_written_and_consistent(tmp_path):
    grid = small_grid()
    out = tmp_path / "copy" / "sweep_manifest.json"
    result = run_sweep(grid, sweep_dir=tmp_path / "sweep", manifest_out=out)
    on_disk = json.loads((tmp_path / "sweep" / SWEEP_MANIFEST_FILENAME).read_text())
    assert on_disk == result.manifest == json.loads(out.read_text())
    assert on_disk["kind"] == "repro.sweep_manifest"
    assert on_disk["n_studies"] == len(grid)
    assert set(on_disk["studies"]) == {cell.study_hash for cell in result.cells}
    for entry in on_disk["studies"].values():
        assert entry["file"].startswith("study-")
        assert len(entry["sha256"]) == 64
    assert "wall_clock_s" in on_disk["telemetry"]


def test_study_hash_stable_across_processes():
    config = StudyConfig(n_realizations=30)
    assert sweep_study_hash(config) == sweep_study_hash(config.replace())
    assert sweep_study_hash(config) != sweep_study_hash(config.replace(seed=1))
