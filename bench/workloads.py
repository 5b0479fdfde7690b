"""The five workloads, each driven through the program's public entry points.

A workload has four steps, run by :mod:`bench.child` in one process:
``setup`` builds what every timed call needs (and is timed as set-up),
``warmup`` runs one untimed call with the golden checks, ``op`` runs one
timed call for a given seed and checks its output, and ``teardown``
stops whatever ``setup`` started.  Every workload is a closed loop with
one caller, and keeps one process busy at a time: no worker pools, and
the service-mix client waits while its service works.  Sizes are
constructor arguments so the self-tests can run each workload small;
:data:`WORKLOADS` fixes the benchmark's sizes.

The program's functions are looked up on their modules at call time
(``repro.run_study(...)``), never bound at import, so the traced run's
wrappers see every call.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import repro
import repro.sampling
import repro.service
from repro.io.results_io import matrix_to_dict

from bench import ROOT, child_env

#: The paper's golden cell: 93 of the default seed's 1000 realizations
#: are red for hurricane+intrusion on architecture 2-2.
GOLDEN_SCENARIO = "hurricane+intrusion"
GOLDEN_ARCHITECTURE = "2-2"
GOLDEN_RED = 93
GOLDEN_REALIZATIONS = 1000

#: Accepted adaptive estimates of P(red) for architecture 2 under
#: hurricane.  A 20000-realization plain run gives 0.1107.  Stopping at
#: a 15% relative CI, 100 seeds gave estimates with mean 0.109 and
#: standard deviation 0.0079, so the band edges sit about five standard
#: deviations away on either side.
ADAPTIVE_P_BAND = (0.07, 0.15)

#: How often the service client polls a job, not the client's 200 ms default.
POLL_S = 0.01


class CheckFailed(Exception):
    """An output of the program is wrong."""


class OperationFailed(Exception):
    """The program reported an operation as failed (a failed job)."""


@dataclass(frozen=True)
class Sample:
    """One timed call: its kind, perf_counter interval and work done."""

    kind: str
    t0: float
    t1: float
    realizations: int

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0


@dataclass
class OpResult:
    """What one timed step produced."""

    samples: list[Sample]
    digest: str
    #: Exact counts the program reported (summed into per-layer metrics).
    counts: dict = field(default_factory=dict)
    #: The study manifest's ``ensemble.generate`` seconds, when it has one.
    generate_s: float | None = None


@dataclass(frozen=True)
class Context:
    work_dir: Path
    seed: int
    #: Where traced child processes write their spans (None: untraced).
    span_dir: Path | None = None


def digest(payload: object) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def check_counts(matrix: dict, n: int, label: str) -> None:
    """Every cell's outcome counts must add up to the realizations run."""
    for entry in matrix["entries"]:
        total = sum(entry["counts"].values())
        if total != n:
            raise CheckFailed(
                f"{label}: {entry['scenario']}/{entry['architecture']} counts "
                f"sum to {total}, expected {n}"
            )


def check_golden(matrix: dict, label: str) -> None:
    for entry in matrix["entries"]:
        if (entry["scenario"], entry["architecture"]) == (GOLDEN_SCENARIO, GOLDEN_ARCHITECTURE):
            red = entry["counts"]["red"]
            if red != GOLDEN_RED:
                raise CheckFailed(
                    f"{label}: golden violated, {red}/{GOLDEN_REALIZATIONS} red "
                    f"for {GOLDEN_SCENARIO} on {GOLDEN_ARCHITECTURE}, expected {GOLDEN_RED}"
                )
            return
    raise CheckFailed(f"{label}: no {GOLDEN_SCENARIO}/{GOLDEN_ARCHITECTURE} cell")


class Workload:
    name: str
    #: The sample kind whose latency is ``study_s_p50``.
    primary = "study"

    def setup(self, ctx: Context) -> object:
        return None

    def warmup(self, state: object) -> None:
        raise NotImplementedError

    def op(self, state: object, seed: int) -> OpResult:
        raise NotImplementedError

    def untraced_state(self, state: object) -> object:
        """The state for a traced run's untraced calls."""
        return state

    def teardown(self, state: object) -> None:
        pass


# ----------------------------------------------------------------------
# run_study workloads
# ----------------------------------------------------------------------
@dataclass
class PaperStudy(Workload):
    """The paper's 5 x 4 matrix through ``run_study``."""

    name: str
    n_realizations: int = GOLDEN_REALIZATIONS

    def _run(self, seed: int):
        config = repro.StudyConfig(n_realizations=self.n_realizations, seed=seed)
        t0 = time.perf_counter()
        result = repro.run_study(config)
        return result, t0, time.perf_counter()

    def warmup(self, state) -> None:
        result, _, _ = self._run(repro.StudyConfig().seed)
        matrix = matrix_to_dict(result.matrix)
        check_counts(matrix, self.n_realizations, f"{self.name} warm-up")
        if self.n_realizations == GOLDEN_REALIZATIONS:
            check_golden(matrix, f"{self.name} warm-up (run_study)")

    def op(self, state, seed: int) -> OpResult:
        result, t0, t1 = self._run(seed)
        matrix = matrix_to_dict(result.matrix)
        check_counts(matrix, self.n_realizations, f"{self.name} seed {seed}")
        return OpResult(
            samples=[Sample("study", t0, t1, self.n_realizations)],
            digest=digest(matrix),
            generate_s=result.manifest["stages"].get("ensemble.generate"),
        )


def fresh_grid_coupled_chain():
    """A new instance of the registered ``grid-coupled`` chain.

    The registered chain's interdependency stage keeps the coupling of
    every damage pattern it has seen for the life of the process, so each
    study on it runs faster than the one before (0.60 s to 0.38 s over 60
    calls at 2000 realizations, with 26k patterns kept).  On a new
    instance every call starts cold, whatever ran before it.
    """
    registered = repro.get_chain("grid-coupled")
    return repro.ThreatChain(
        name=registered.name,
        stages=tuple(type(stage)() for stage in registered.stages),
        description=registered.description,
    )


@dataclass
class PrebuiltAnalysis(Workload):
    """Stochastic grid-coupled analysis of one prebuilt ensemble."""

    name: str
    n_realizations: int = 1000

    def setup(self, ctx: Context):
        # One fixed ensemble for every run: analysis time depends on its
        # damage patterns, so a seed-drawn ensemble would add ~5% of
        # run-to-run spread.  The analysis seeds still come from --seed.
        return repro.standard_oahu_ensemble(count=self.n_realizations)

    def _run(self, ensemble, analysis_seed: int):
        config = repro.StudyConfig(
            ensemble=ensemble,
            chain=fresh_grid_coupled_chain(),
            fragility=repro.LogisticFragility(steepness_per_m=4.0),
            attacker=repro.ProbabilisticAttacker(p_intrusion=0.7, p_isolation=0.7),
            analysis_seed=analysis_seed,
        )
        t0 = time.perf_counter()
        result = repro.run_study(config)
        t1 = time.perf_counter()
        matrix = matrix_to_dict(result.matrix)
        check_counts(matrix, self.n_realizations, f"{self.name} analysis seed {analysis_seed}")
        return matrix, t0, t1

    def warmup(self, ensemble) -> None:
        self._run(ensemble, 0)

    def op(self, ensemble, seed: int) -> OpResult:
        matrix, t0, t1 = self._run(ensemble, seed)
        return OpResult([Sample("study", t0, t1, self.n_realizations)], digest(matrix))


@dataclass
class AdaptiveStudy(Workload):
    """Stratified adaptive sampling to a relative CI on one cell."""

    name: str
    target_ci: float = 0.15
    round_size: int = 125
    p_band: tuple[float, float] = ADAPTIVE_P_BAND

    def _run(self, seed: int):
        plan = dataclasses.replace(
            repro.sampling.sampling_from_options("stratified", self.target_ci),
            round_size=self.round_size,
        )
        config = repro.StudyConfig(
            sampling=plan, configurations=["2"], scenarios=["hurricane"], seed=seed
        )
        t0 = time.perf_counter()
        result = repro.run_study(config)
        t1 = time.perf_counter()
        adaptive = result.manifest["adaptive"]
        label = f"{self.name} seed {seed}"
        if not adaptive["converged"] or adaptive["rel_ci_halfwidth"] > self.target_ci:
            raise CheckFailed(
                f"{label}: did not reach the {self.target_ci:.0%} CI in "
                f"{adaptive['rounds']} rounds"
            )
        low, high = self.p_band
        if not low <= adaptive["p_hat"] <= high:
            raise CheckFailed(
                f"{label}: p_hat {adaptive['p_hat']:.4f} outside [{low}, {high}]"
            )
        matrix = matrix_to_dict(result.matrix)
        check_counts(matrix, adaptive["total_realizations"], label)
        return adaptive, matrix, t0, t1

    def warmup(self, state) -> None:
        self._run(repro.StudyConfig().seed)

    def op(self, state, seed: int) -> OpResult:
        adaptive, matrix, t0, t1 = self._run(seed)
        n = adaptive["total_realizations"]
        return OpResult(
            samples=[Sample("study", t0, t1, n)],
            digest=digest([matrix, repr(adaptive["p_hat"])]),
            counts={"sampling.rounds": adaptive["rounds"], "sampling.realizations": n},
        )


# ----------------------------------------------------------------------
# run_sweep
# ----------------------------------------------------------------------
@dataclass
class SweepGrid(Workload):
    """A 36-cell grid over 3 storm categories through ``run_sweep``, serially.

    ``jobs=1``: a pool's parent and its workers would wake each other
    across both cores thousands of times per sweep, and on a shared host
    that measures the host's scheduler more than the sweep.
    """

    name: str
    n_realizations: int = 100
    warmup_realizations: int = GOLDEN_REALIZATIONS

    def warmup(self, state) -> None:
        # The golden cell (category 2, waiau, 0.5 m, paper chain) beside a
        # kahe cell that shares its ensemble.
        configs = repro.sweep_grid(
            repro.StudyConfig(n_realizations=self.warmup_realizations),
            category=[2], placement=["waiau", "kahe"], threshold=[0.5], chain=["paper"],
        )
        result = repro.run_sweep(configs)
        (cell,) = result.get(placement=repro.PLACEMENT_WAIAU.label())
        matrix = matrix_to_dict(cell.matrix)
        check_counts(matrix, self.warmup_realizations, f"{self.name} warm-up")
        if self.warmup_realizations == GOLDEN_REALIZATIONS:
            check_golden(matrix, f"{self.name} warm-up (run_sweep)")

    def op(self, state, seed: int) -> OpResult:
        t0 = time.perf_counter()
        configs = repro.sweep_grid(
            repro.StudyConfig(seed=seed, n_realizations=self.n_realizations),
            category=[1, 2, 3], placement=["waiau", "kahe"],
            threshold=[0.3, 0.5, 1.0], chain=["paper", fresh_grid_coupled_chain()],
        )
        result = repro.run_sweep(configs)
        t1 = time.perf_counter()
        label = f"{self.name} seed {seed}"
        if not result.ok or len(result.cells) != len(configs):
            raise CheckFailed(f"{label}: {len(result.failures)} failed studies")
        counters = result.manifest["telemetry"]["metrics"]["counters"]
        if counters.get("sweep.ensemble.generated") != 3:
            raise CheckFailed(
                f"{label}: sweep.ensemble.generated is "
                f"{counters.get('sweep.ensemble.generated')}, expected 3"
            )
        matrices = [matrix_to_dict(cell.matrix) for cell in result.cells]
        for matrix in matrices:
            check_counts(matrix, self.n_realizations, label)
        return OpResult(
            [Sample("study", t0, t1, len(configs) * self.n_realizations)],
            digest(matrices),
        )


# ----------------------------------------------------------------------
# The HTTP study service
# ----------------------------------------------------------------------
def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@dataclass
class ServiceState:
    process: subprocess.Popen
    client: object
    cache_dir: Path
    #: A traced run's second, untraced service.
    plain: ServiceState | None = None


@dataclass
class ServiceMix(Workload):
    """fresh / reload / cached requests from one client over HTTP.

    The service inherits the client's single CPU (see
    :func:`bench.child.pin_to_one_cpu`): the client sleeps between polls,
    and every poll wakes a thread on the same CPU instead of the other one.
    """

    name: str
    n_realizations: int = 300
    warmup_realizations: int = GOLDEN_REALIZATIONS
    primary = "fresh"

    def setup(self, ctx: Context) -> ServiceState:
        state = self._start(ctx.work_dir / "service", ctx.span_dir)
        if ctx.span_dir is not None:
            try:
                state.plain = self._start(ctx.work_dir / "plain-service", None)
            except BaseException:
                self._stop(state.process)
                raise
        return state

    def _start(self, work_dir: Path, span_dir: Path | None) -> ServiceState:
        port = free_port()
        command = [
            sys.executable, "-m", "bench.serve",
            "--dir", str(work_dir), "--port", str(port),
        ]
        if span_dir is not None:
            command += ["--span-dir", str(span_dir)]
        process = subprocess.Popen(
            command, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL
        )
        client = repro.service.ServiceClient(f"http://127.0.0.1:{port}", timeout=60.0)
        deadline = time.monotonic() + 60.0
        while True:
            try:
                if client.health()["status"] == "ok":
                    break
            except repro.service.ServiceClientError:
                pass
            if process.poll() is not None or time.monotonic() > deadline:
                self._stop(process)
                raise RuntimeError("study service did not become healthy")
            time.sleep(0.01)
        return ServiceState(process, client, work_dir / "ensemble-cache")

    def untraced_state(self, state: ServiceState) -> ServiceState:
        return state.plain

    def _request(self, state: ServiceState, spec: dict, label: str):
        t0 = time.perf_counter()
        submitted = state.client.submit(spec)
        if not submitted["cached"]:
            status = state.client.wait(submitted["job_id"], timeout=120.0, poll_s=POLL_S)
            if status["state"] != "done":
                raise OperationFailed(f"{label}: job {status['state']}")
        result = state.client.result(submitted["job_id"])
        return result["matrix"], submitted["cached"], t0, time.perf_counter()

    def warmup(self, state: ServiceState) -> None:
        spec = {"n_realizations": self.warmup_realizations}
        matrix, _, _, _ = self._request(state, spec, f"{self.name} warm-up")
        check_counts(matrix, self.warmup_realizations, f"{self.name} warm-up")
        if self.warmup_realizations == GOLDEN_REALIZATIONS:
            check_golden(matrix, f"{self.name} warm-up (HTTP)")

    def op(self, state: ServiceState, seed: int) -> OpResult:
        label = f"{self.name} seed {seed}"
        fresh_spec = {
            "n_realizations": self.n_realizations,
            "seed": seed,
            "cache_dir": str(state.cache_dir),
        }
        samples = []
        matrices = []
        # fresh computes the study, reload reads the ensemble cache the
        # fresh study wrote, cached is served from the result store.
        for kind, spec in (
            ("fresh", fresh_spec),
            ("reload", {**fresh_spec, "fragility_threshold": 1.0}),
            ("cached", fresh_spec),
        ):
            matrix, cached, t0, t1 = self._request(state, spec, f"{label} {kind}")
            if cached != (kind == "cached"):
                raise CheckFailed(f"{label}: {kind} request answered cached={cached}")
            computed = 0 if cached else self.n_realizations
            check_counts(matrix, self.n_realizations, f"{label} {kind}")
            samples.append(Sample(kind, t0, t1, computed))
            matrices.append(matrix)
        if matrices[2] != matrices[0]:
            raise CheckFailed(f"{label}: cached result differs from the fresh one")
        return OpResult(samples, digest(matrices[:2]))

    @staticmethod
    def _stop(process: subprocess.Popen) -> int:
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
        try:
            return process.wait(timeout=60.0)
        except subprocess.TimeoutExpired:
            process.kill()
            return process.wait()

    def teardown(self, state: ServiceState) -> None:
        codes = [self._stop(s.process) for s in (state.plain, state) if s is not None]
        if any(codes):
            raise CheckFailed(f"{self.name}: service drain exited {codes}")


#: The benchmark's workloads; BENCHMARK.json says why each exists.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        PaperStudy("paper-1k"),
        PrebuiltAnalysis("analysis-1k"),
        SweepGrid("sweep-36"),
        ServiceMix("service-mix"),
        AdaptiveStudy("tail-adaptive"),
    )
}
