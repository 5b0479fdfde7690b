"""Plan-aware ensemble generation: the same pipeline, a reshaped draw.

:class:`PlanSampledGenerator` wraps a hurricane
:class:`~repro.hazards.hurricane.ensemble.EnsembleGenerator` and swaps
only the track-offset stream: the plan draws every realization's offset
from the single main rng first, then each realization's remaining storm
parameters are drawn in the usual serial order with the offset pinned.
Everything downstream is reused verbatim -- the fault-tolerant
:class:`~repro.runtime.controller.RunController` (sharded checkpoints,
worker retry, bit-identical parallelism), the on-disk ensemble cache,
and the sweep engine's shared-memory transport -- because the wrapper
satisfies the exact generator contract those layers consume
(``catalog``, ``scenario``, ``asset_order``, ``mesh_size``,
``sample_all_parameters``, ``block_rows``, ``realize_block``,
``realize``, ``cache_key``, ``generate``).  The
controller runs ``realize_block`` over blocks of ``block_rows`` pending
realizations, in process or on pooled workers, so adaptive rounds
generate on the same block kernel.

The wrapper's cache key folds the plan spec into the inner generator's
content hash, so plan-sampled ensembles never collide with plain ones
in caches or checkpoint directories.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigurationError
from repro.hazards.hurricane.ensemble import EnsembleGenerator, StormParameters
from repro.sampling.plans import SamplingPlan, is_plain

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hazards.hurricane.ensemble import HurricaneEnsemble, HurricaneRealization


@dataclass
class PlanSampledGenerator:
    """An :class:`EnsembleGenerator` drawing offsets under a sampling plan."""

    inner: EnsembleGenerator
    plan: SamplingPlan

    deterministic = True

    def __post_init__(self) -> None:
        if not isinstance(self.inner, EnsembleGenerator):
            raise ConfigurationError(
                "sampling plans reshape hurricane track parameters; the "
                f"generator must be an EnsembleGenerator, not "
                f"{type(self.inner).__name__}"
            )

    # -- the generator contract the runtime/sweep layers consume --------
    @property
    def region(self):
        return self.inner.region

    @property
    def catalog(self):
        return self.inner.catalog

    @property
    def scenario(self):
        return self.inner.scenario

    @property
    def mesh_size(self) -> int:
        return self.inner.mesh_size

    @property
    def asset_order(self) -> tuple[str, ...]:
        return self.inner.asset_order

    @property
    def offset_sd_km(self) -> float:
        return float(self.inner.scenario.track_offset_sd_km)

    def sample_all_parameters(self, count: int, seed: int) -> np.ndarray:
        """The serial parameter pass with plan-shaped offsets.

        One rng, consumed serially: first the plan's offset stream for
        all ``count`` realizations, then each realization's remaining
        parameters in index order.  Deterministic for a given (plan,
        seed, count), independent of worker scheduling -- exactly the
        property the checkpointed resume path relies on.
        """
        rng = np.random.default_rng(seed)
        offsets = self.plan.sample_offsets(count, rng, self.offset_sd_km)
        return self.inner.sample_parameter_block(rng, count, offsets_km=offsets)

    @property
    def block_rows(self) -> int:
        return self.inner.block_rows

    def realize_block(
        self,
        params: np.ndarray,
        uniforms: np.ndarray | None,
        timer: dict[str, float] | None = None,
    ) -> np.ndarray:
        return self.inner.realize_block(params, uniforms, timer)

    def realize(
        self, index: int, params: StormParameters, rng: np.random.Generator | None
    ) -> "HurricaneRealization":
        return self.inner.realize(index, params, rng)

    def cache_key(self, count: int, seed: int) -> str:
        """The inner content hash salted with the plan spec."""
        inner_key = self.inner.cache_key(count, seed)
        spec = json.dumps(self.plan.spec(), sort_keys=True)
        return "plan" + hashlib.sha256(
            f"{inner_key}:{spec}".encode()
        ).hexdigest()[:28]

    def generate(self, *args, **kwargs) -> "HurricaneEnsemble":
        """Reuse the inner class's generate flow (cache -> checkpointed
        controller -> cache store) against this wrapper's parameter pass
        and cache key."""
        return EnsembleGenerator.generate(self, *args, **kwargs)

    def weights(self, ensemble) -> np.ndarray:
        """Per-realization weights for an ensemble this wrapper produced."""
        return self.plan.weights_for(ensemble, self.offset_sd_km)


def maybe_plan_sampled(
    generator: EnsembleGenerator, plan: SamplingPlan | None
) -> "EnsembleGenerator | PlanSampledGenerator":
    """Wrap ``generator`` under ``plan`` -- unless the plan is plain, in
    which case the generator is returned untouched so the legacy path
    stays bitwise identical."""
    if is_plain(plan):
        return generator
    assert plan is not None
    return PlanSampledGenerator(generator, plan)
