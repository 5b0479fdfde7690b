"""Sampling plans: how an ensemble's track parameters are drawn.

The paper's Monte Carlo draws the storm-track offset from
``N(0, sigma^2)`` and weights every realization equally.  That is the
``plain`` plan, and it is hopeless for tail questions: bounding a 0.1%
red-state probability to +/-10% relative needs ~4M plain realizations.
The plans here reshape *only the track-offset draw* -- the single
parameter that drives landfall position and therefore inundation --
and attach an importance weight to each realization so that weighted
aggregation stays an unbiased estimate of the plain-MC answer:

* :class:`PlainPlan` -- the paper's sampler, weight 1 everywhere.
* :class:`StratifiedPlan` -- partition the offset axis into bins with
  exact normal probabilities ``p_k`` (via ``erf``), draw a fixed
  allocation ``n_k`` per bin (conditionally, by rejection), and weight
  each draw ``p_k * N / n_k``.  ``allocation="equal"`` oversamples the
  tail bins, which is where the rare red events live.
* :class:`ImportancePlan` -- draw the offset from the wider (optionally
  shifted) proposal ``N(shift_sd * sigma, (scale * sigma)^2)`` and
  weight by the exact normal likelihood ratio ``f(x)/g(x)``.  With
  ``scale >= 1`` the ratio is bounded by ``scale``, so no single
  realization can dominate the estimate.
* :class:`AdaptivePlan` -- a round controller around any base plan:
  keep generating rounds until the target cell's CI half-width falls
  below ``target_rel_ci`` relative (see :mod:`repro.sampling.adaptive`).

Weights are a *pure function* of the stored
:class:`~repro.hazards.hurricane.ensemble.StormParameters` and the plan
itself, so they are recomputed bit-identically from checkpointed or
cached realizations -- resume never has to persist them separately.

Plans are frozen dataclasses with a JSON-friendly :meth:`spec`, a
registry (:func:`register_sampling_plan`), and a normalizer
(:func:`resolve_sampling`) accepting a plan, a registered name, or a
spec dict -- the same shape the chain/region/hazard registries use, so
``StudyConfig(sampling=...)``, sweep axes, and HTTP specs all speak the
same vocabulary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields as dataclass_fields, replace
from typing import ClassVar

import numpy as np

from repro.core.states import OperationalState
from repro.errors import ConfigurationError
from repro.hazards.hurricane.ensemble import PARAM_COLUMNS, HurricaneEnsemble

__all__ = [
    "SamplingPlan",
    "PlainPlan",
    "StratifiedPlan",
    "ImportancePlan",
    "AdaptivePlan",
    "register_sampling_plan",
    "available_sampling_plans",
    "resolve_sampling",
    "sampling_from_options",
    "is_plain",
    "normal_cdf",
]


def normal_cdf(z: float) -> float:
    """The standard normal CDF, exactly (via ``math.erf``)."""
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


@dataclass(frozen=True)
class SamplingPlan:
    """Base class for sampling plans (frozen; subclasses add knobs).

    A plan answers two questions, both deterministic:

    * :meth:`sample_offsets` -- the track offsets (km) for ``count``
      realizations, consuming ``rng`` serially.
    * :meth:`offset_weights` -- the importance weight of each offset,
      recomputable from stored parameters alone.
    """

    name: ClassVar[str] = "base"

    def spec(self) -> dict:
        """JSON-friendly identity: enters hashes, manifests, and specs."""
        payload: dict = {"plan": self.name}
        for field in dataclass_fields(self):
            value = getattr(self, field.name)
            if isinstance(value, SamplingPlan):
                value = value.spec()
            elif isinstance(value, tuple):
                value = list(value)
            payload[field.name] = value
        return payload

    def sample_offsets(
        self, count: int, rng: np.random.Generator, sd_km: float
    ) -> np.ndarray:
        raise NotImplementedError

    def offset_weights(self, offsets: np.ndarray, sd_km: float) -> np.ndarray:
        raise NotImplementedError

    def weights_for(self, ensemble, sd_km: float) -> np.ndarray:
        """Per-realization weights, recomputed from stored parameters.

        Requires every realization to carry ``params.track_offset_km``
        (the hurricane family's :class:`StormParameters` contract);
        ``sd_km`` is the generating spec's ``track_offset_sd_km``.
        Because this is a pure function of plan + stored parameters,
        cached, checkpointed, and resumed ensembles all reweight
        bit-identically.
        """
        offsets = ensemble_track_offsets(ensemble)
        return self.offset_weights(offsets, sd_km)


@dataclass(frozen=True)
class PlainPlan(SamplingPlan):
    """The paper's sampler: offsets from ``N(0, sigma^2)``, weight 1."""

    name: ClassVar[str] = "plain"

    def sample_offsets(
        self, count: int, rng: np.random.Generator, sd_km: float
    ) -> np.ndarray:
        return np.array([float(rng.normal(0.0, sd_km)) for _ in range(count)])

    def offset_weights(self, offsets: np.ndarray, sd_km: float) -> np.ndarray:
        return np.ones(len(offsets))


@dataclass(frozen=True)
class StratifiedPlan(SamplingPlan):
    """Stratify the offset axis into bins with exact normal mass.

    ``edges_sd`` are interior bin edges in units of the scenario's
    track-offset sigma; ``K = len(edges_sd) + 1`` bins cover the whole
    axis (the outermost bins are the tails).  Draws within a bin are
    conditional-normal by rejection, so the weighted estimator
    ``sum(w_i * h_i) / sum(w_i)`` with ``w = p_k * N / n_k`` is exact
    stratified sampling.  ``allocation``:

    * ``"proportional"`` -- ``n_k ~ N * p_k`` (classic variance
      reduction from stratification alone; weights ~1).
    * ``"equal"`` -- ``n_k ~ N / K`` (oversamples the tails ~20x at the
      default edges; the right choice for rare red events).
    """

    edges_sd: tuple[float, ...] = (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)
    allocation: str = "proportional"

    name: ClassVar[str] = "stratified"

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges_sd", tuple(float(e) for e in self.edges_sd))
        if len(self.edges_sd) < 1:
            raise ConfigurationError("stratified sampling needs at least one bin edge")
        if any(b <= a for a, b in zip(self.edges_sd, self.edges_sd[1:])):
            raise ConfigurationError(
                f"stratified bin edges must be strictly increasing, got "
                f"{self.edges_sd}"
            )
        if self.allocation not in ("proportional", "equal"):
            raise ConfigurationError(
                f"allocation must be 'proportional' or 'equal', "
                f"not {self.allocation!r}"
            )

    @property
    def n_bins(self) -> int:
        return len(self.edges_sd) + 1

    def bin_probabilities(self) -> np.ndarray:
        """Exact normal mass of each bin (sums to 1)."""
        cdf = [0.0] + [normal_cdf(e) for e in self.edges_sd] + [1.0]
        return np.diff(np.array(cdf))

    def allocate(self, count: int) -> np.ndarray:
        """Deterministic per-bin sample counts summing to ``count``."""
        k = self.n_bins
        if count < k:
            raise ConfigurationError(
                f"stratified sampling with {k} bins needs at least {k} "
                f"realizations, got {count}"
            )
        if self.allocation == "equal":
            base, rem = divmod(count, k)
            counts = np.full(k, base, dtype=int)
            counts[:rem] += 1
            return counts
        ideal = self.bin_probabilities() * count
        counts = np.floor(ideal).astype(int)
        # Largest-remainder rounding, ties broken by bin order (stable
        # argsort), then guarantee one draw per bin so no stratum mass
        # is dropped from the estimator.
        order = np.argsort(-(ideal - counts), kind="stable")
        for i in order[: count - int(counts.sum())]:
            counts[i] += 1
        while (counts == 0).any():
            counts[int(np.argmin(counts))] += 1
            counts[int(np.argmax(counts))] -= 1
        return counts

    def _bin_of(self, offsets: np.ndarray, sd_km: float) -> np.ndarray:
        return np.searchsorted(np.array(self.edges_sd) * sd_km, offsets, side="right")

    def sample_offsets(
        self, count: int, rng: np.random.Generator, sd_km: float
    ) -> np.ndarray:
        counts = self.allocate(count)
        lows = (-math.inf,) + self.edges_sd
        highs = self.edges_sd + (math.inf,)
        out: list[float] = []
        for k, n_k in enumerate(counts):
            lo, hi = lows[k] * sd_km, highs[k] * sd_km
            drawn = 0
            while drawn < n_k:
                x = float(rng.normal(0.0, sd_km))
                if lo <= x < hi:
                    out.append(x)
                    drawn += 1
        return np.array(out)

    def offset_weights(self, offsets: np.ndarray, sd_km: float) -> np.ndarray:
        count = len(offsets)
        probabilities = self.bin_probabilities()
        counts = self.allocate(count)
        bins = self._bin_of(np.asarray(offsets, dtype=float), sd_km)
        return probabilities[bins] * count / counts[bins]


@dataclass(frozen=True)
class ImportancePlan(SamplingPlan):
    """Likelihood-ratio reweighting against a wider/shifted proposal.

    The offset is drawn from ``g = N(shift_sd * sigma, (scale *
    sigma)^2)`` and weighted by the exact density ratio ``w(x) = f(x) /
    g(x)`` against the target ``f = N(0, sigma^2)``, so every weighted
    average is unbiased for its plain-MC counterpart.  ``scale >= 1``
    is enforced: it bounds the ratio by ``scale * exp(shift_sd^2 / (2 *
    (scale^2 - 1)))`` (by ``scale`` exactly when unshifted), keeping
    the effective sample size from collapsing.
    """

    shift_sd: float = 0.0
    scale: float = 3.0

    name: ClassVar[str] = "importance"

    def __post_init__(self) -> None:
        if not self.scale >= 1.0:
            raise ConfigurationError(
                f"importance sampling requires scale >= 1 (bounded "
                f"weights), got {self.scale}"
            )
        if self.shift_sd != 0.0 and self.scale <= 1.0:
            raise ConfigurationError(
                "a shifted proposal needs scale > 1, or the likelihood "
                "ratio is unbounded on one tail"
            )

    def sample_offsets(
        self, count: int, rng: np.random.Generator, sd_km: float
    ) -> np.ndarray:
        return rng.normal(self.shift_sd * sd_km, self.scale * sd_km, size=count)

    def offset_weights(self, offsets: np.ndarray, sd_km: float) -> np.ndarray:
        z_target = np.asarray(offsets, dtype=float) / sd_km
        z_proposal = (z_target - self.shift_sd) / self.scale
        return self.scale * np.exp(0.5 * (z_proposal**2 - z_target**2))


@dataclass(frozen=True)
class AdaptivePlan(SamplingPlan):
    """Run base-plan rounds until a target CI half-width is reached.

    The controller (:func:`repro.sampling.run_adaptive_study`) generates
    ``round_size`` realizations per round under ``base``, merges the
    weighted tallies, and stops when the chosen outcome's 95% CI
    half-width is at most ``target_rel_ci`` relative to the estimate
    (or after ``max_rounds``).  The outcome cell defaults to the red
    state of the study's first (scenario, architecture) cell.
    """

    base: "SamplingPlan | str" = "importance"
    round_size: int = 250
    max_rounds: int = 40
    target_rel_ci: float = 0.10
    state: str = "red"
    scenario: str | None = None
    architecture: str | None = None

    name: ClassVar[str] = "adaptive"

    def __post_init__(self) -> None:
        if self.round_size < 10:
            raise ConfigurationError(
                f"adaptive round_size must be >= 10, got {self.round_size}"
            )
        if self.max_rounds < 1:
            raise ConfigurationError(
                f"adaptive max_rounds must be >= 1, got {self.max_rounds}"
            )
        if not 0.0 < self.target_rel_ci < 1.0:
            raise ConfigurationError(
                f"target_rel_ci must be in (0, 1), got {self.target_rel_ci}"
            )
        try:
            OperationalState(self.state)
        except ValueError:
            raise ConfigurationError(
                f"unknown outcome state {self.state!r}; choose from "
                f"{[s.value for s in OperationalState]}"
            ) from None
        base = self.resolved_base()  # validates name/spec
        if base.name == "adaptive":
            raise ConfigurationError("an adaptive plan cannot nest another")

    def resolved_base(self) -> SamplingPlan:
        base = resolve_sampling(self.base)
        assert base is not None
        return base

    def sample_offsets(
        self, count: int, rng: np.random.Generator, sd_km: float
    ) -> np.ndarray:
        return self.resolved_base().sample_offsets(count, rng, sd_km)

    def offset_weights(self, offsets: np.ndarray, sd_km: float) -> np.ndarray:
        return self.resolved_base().offset_weights(offsets, sd_km)


# ----------------------------------------------------------------------
# Registry (mirrors chains / regions / hazard families)
# ----------------------------------------------------------------------
_PLANS: dict[str, type[SamplingPlan]] = {}


def register_sampling_plan(
    cls: type[SamplingPlan], *, replace: bool = False
) -> type[SamplingPlan]:
    """Register a plan class under its ``name``; returns it."""
    if cls.name in _PLANS and not replace:
        raise ConfigurationError(
            f"sampling plan {cls.name!r} is already registered"
        )
    _PLANS[cls.name] = cls
    return cls


def available_sampling_plans() -> list[str]:
    """Registered plan names, sorted."""
    return sorted(_PLANS)


for _cls in (PlainPlan, StratifiedPlan, ImportancePlan, AdaptivePlan):
    register_sampling_plan(_cls)


def _plan_from_spec(spec: dict) -> SamplingPlan:
    data = dict(spec)
    name = data.pop("plan", None)
    if not isinstance(name, str):
        raise ConfigurationError(
            f"a sampling spec needs a 'plan' name, got {spec!r}"
        )
    try:
        cls = _PLANS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown sampling plan {name!r}; choose from "
            f"{available_sampling_plans()}"
        ) from None
    allowed = {f.name for f in dataclass_fields(cls)}
    unknown = set(data) - allowed
    if unknown:
        raise ConfigurationError(
            f"unknown {name} sampling option(s) {sorted(unknown)}; "
            f"choose from {sorted(allowed)}"
        )
    if isinstance(data.get("base"), dict):
        data["base"] = _plan_from_spec(data["base"])
    if isinstance(data.get("edges_sd"), list):
        data["edges_sd"] = tuple(data["edges_sd"])
    try:
        return cls(**data)
    except TypeError as exc:
        raise ConfigurationError(f"invalid {name} sampling spec: {exc}") from exc


def resolve_sampling(
    sampling: "SamplingPlan | str | dict | None",
) -> SamplingPlan | None:
    """Normalize a sampling argument: ``None`` stays ``None`` (plain
    path), a name resolves to the registered plan's defaults, a dict is
    a :meth:`SamplingPlan.spec`-shaped spec."""
    if sampling is None:
        return None
    if isinstance(sampling, SamplingPlan):
        return sampling
    if isinstance(sampling, str):
        try:
            return _PLANS[sampling]()
        except KeyError:
            raise ConfigurationError(
                f"unknown sampling plan {sampling!r}; choose from "
                f"{available_sampling_plans()}"
            ) from None
    if isinstance(sampling, dict):
        return _plan_from_spec(sampling)
    raise ConfigurationError(
        f"sampling must be a SamplingPlan, a registered name, or a spec "
        f"dict, not {type(sampling).__name__}"
    )


def is_plain(plan: SamplingPlan | None) -> bool:
    """Whether a plan takes the bitwise-identical legacy code path."""
    return plan is None or plan.name == "plain"


def sampling_from_options(
    sampling: "SamplingPlan | str | dict | None",
    target_ci: float | None = None,
) -> SamplingPlan | None:
    """Combine ``--sampling`` and ``--target-ci`` style options.

    A ``target_ci`` promotes the plan to adaptive: the given plan (or
    importance, the default) becomes the per-round base.
    """
    plan = resolve_sampling(sampling)
    if target_ci is None:
        return plan
    if isinstance(plan, AdaptivePlan):
        return replace(plan, target_rel_ci=float(target_ci))
    base: SamplingPlan = plan if plan is not None and plan.name != "plain" else (
        ImportancePlan()
    )
    return AdaptivePlan(base=base, target_rel_ci=float(target_ci))


# ----------------------------------------------------------------------
# Ensemble introspection shared by weights and the generator wrapper
# ----------------------------------------------------------------------
def ensemble_track_offsets(ensemble) -> np.ndarray:
    """Each realization's stored track offset (km), in index order.

    A hurricane ensemble answers from its parameter matrix; any other
    ensemble must carry ``params.track_offset_km`` on its realizations.
    """
    if isinstance(ensemble, HurricaneEnsemble):
        column = PARAM_COLUMNS.index("track_offset_km")
        return ensemble.parameter_view()[:, column].copy()
    offsets = []
    for realization in ensemble.realizations:
        params = getattr(realization, "params", None)
        offset = getattr(params, "track_offset_km", None)
        if offset is None:
            raise ConfigurationError(
                "sampling plans need realizations with track parameters "
                "(params.track_offset_km); this ensemble's realizations "
                f"are {type(realization).__name__}"
            )
        offsets.append(float(offset))
    return np.array(offsets)
