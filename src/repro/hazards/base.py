"""Hazard-agnostic interfaces consumed by the analysis pipeline.

The compound threat model is generic in the natural disaster (paper
Section III-B): the pipeline only needs, per realization, *which assets
failed*.  Any hazard that yields realizations with a ``failed_assets``
method and an index therefore plugs in -- the hurricane ensemble is the
paper's case study, the earthquake and flood ensembles demonstrate the
generality.
"""

from __future__ import annotations

from typing import Iterator, Protocol, runtime_checkable

import numpy as np

from repro.hazards.fragility import FragilityModel


@runtime_checkable
class HazardRealization(Protocol):
    """One sampled disaster outcome."""

    index: int

    def failed_assets(
        self,
        fragility: FragilityModel | None = None,
        rng: np.random.Generator | None = None,
    ) -> frozenset[str]:
        """Asset names rendered non-operational in this realization."""
        ...  # pragma: no cover - protocol


@runtime_checkable
class HazardEnsemble(Protocol):
    """An ordered collection of hazard realizations.

    Iterating is all the scalar path needs.  Every library family's
    ensemble is also an
    :class:`~repro.hazards.columnar.ArrayBackedEnsemble`, whose (R, A)
    intensity matrix :func:`~repro.hazards.columnar.depth_grid` reads for
    the batched executor, shared-memory hand-over and cache keys; a
    foreign ensemble that exposes ``asset_names`` and
    ``depth_view()``/``depth_matrix()`` gets the same treatment.
    """

    def __len__(self) -> int:
        ...  # pragma: no cover - protocol

    def __iter__(self) -> Iterator[HazardRealization]:
        ...  # pragma: no cover - protocol


@runtime_checkable
class Hazard(Protocol):
    """A hazard family's ensemble generator.

    Every hazard family (hurricane surge, earthquake shaking, riverine
    flooding, ...) exposes the same four capabilities so the study
    facade, sweep engine, and ensemble cache can treat them uniformly:

    * ``generate(count, seed, ...)`` -- sample ``count`` realizations
      into a :class:`HazardEnsemble`.  Implementations accept (and may
      ignore) the delivery keywords ``n_jobs``, ``cache_dir``,
      ``resume``, ``retry``, and ``faults`` so callers never need to
      know whether generation is parallel or cached.
    * per-asset intensity sampling -- the returned ensemble is an
      :class:`~repro.hazards.columnar.ArrayBackedEnsemble`:
      :func:`~repro.hazards.columnar.depth_grid` hands its read-only
      (R, A) matrix of the family's intensity measure (inundation
      depth, PGA, flood depth) to the batched executor and fragility
      models.
    * ``cache_key(count, seed)`` -- a content hash covering the scenario
      parameters *and* the geography they act on, so two generators
      share cached ensembles iff they would generate identical data.
    * ``deterministic`` -- True when ``generate`` is a pure function of
      ``(count, seed)``; lets schedulers cache/regenerate freely.
    """

    deterministic: bool

    def generate(
        self,
        count: int,
        seed: int,
        **delivery: object,
    ) -> HazardEnsemble:
        """Sample ``count`` realizations deterministically from ``seed``."""
        ...  # pragma: no cover - protocol

    def cache_key(self, count: int, seed: int) -> str:
        """Content hash identifying the generated ensemble."""
        ...  # pragma: no cover - protocol
