"""One columnar ensemble for every hazard family.

The analysis consumes one thing from any Monte Carlo: the peak intensity
measure at each asset, per realization -- inundation depth for surge and
river floods, PGA for earthquakes.  :class:`ArrayBackedEnsemble` is that
(R, A) matrix, its asset order and each row's realization index, plus an
optional (R, k) matrix of the parameters each row was drawn with.  The
hazard families subclass it and declare only their parameter columns
and how one row turns into their public realization type; rows become
objects only when someone indexes or iterates the ensemble.

:func:`depth_grid` is the one probe the batched executor, the sweep
engine's shared-memory hand-over and the prebuilt-ensemble cache key use
to read that matrix, from this class or from any ensemble that exposes
``asset_names`` and ``depth_view()``/``depth_matrix()``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from repro.errors import HazardError
from repro.hazards.fragility import FragilityModel, ThresholdFragility

__all__ = ["ArrayBackedEnsemble", "DepthRealization", "depth_grid"]


@dataclass(frozen=True)
class DepthRealization:
    """One row of an :class:`ArrayBackedEnsemble`: an index and its depths.

    Satisfies :class:`~repro.hazards.base.HazardRealization`: the scalar
    executor's fallback path iterates these exactly as it would the
    original realizations (same float64 depths, so same failed sets).
    """

    index: int
    depths_m: Mapping[str, float]

    def depth_at(self, asset_name: str) -> float:
        return self.depths_m[asset_name]

    def failed_assets(
        self,
        fragility: FragilityModel | None = None,
        rng: np.random.Generator | None = None,
    ) -> frozenset[str]:
        model = fragility or ThresholdFragility()
        return model.failed_assets(self.depths_m, rng)


def _read_only(values, dtype) -> np.ndarray:
    """A read-only view of ``values`` (the caller's array stays writable)."""
    array = np.asarray(values, dtype=dtype).view()
    array.flags.writeable = False
    return array


class ArrayBackedEnsemble:
    """An ordered hazard ensemble, stored as columns.

    The ensemble is its read-only (R, A) intensity matrix
    (:meth:`depth_view`), the asset order of the matrix's columns, each
    row's realization index and the read-only (R, k) parameter matrix
    (:meth:`parameter_view`, columns :attr:`param_columns`).  Every query
    and every hand-over (analysis, cache, shared memory) reads the
    matrices.  ``ens[i]``, iteration and :attr:`realizations` build row
    objects on first use and keep them; pickling carries the columns
    only.

    Built from ``realizations``, the ensemble converts them to columns
    once and keeps the given objects as its rows; otherwise
    ``asset_names``, ``depths`` and (when the family has parameter
    columns) ``params`` give the columns, and ``indices`` defaults to the
    row positions.  ``owner`` pins whatever holds the depth buffer (a
    shared-memory segment) for the ensemble's lifetime.

    A subclass sets :attr:`param_columns` and :attr:`fragility` and
    implements :meth:`_from_row`/:meth:`_to_row` for its realization
    type; this base class's rows are :class:`DepthRealization`.
    """

    #: The names of the parameter matrix's columns, in order.
    param_columns: tuple[str, ...] = ()
    #: The fragility model probability queries use when given none.
    fragility: FragilityModel = ThresholdFragility()

    __hash__ = None  # type: ignore[assignment]

    def __init__(
        self,
        scenario_name: str,
        realizations: Sequence[Any] | None = None,
        seed: int | None = None,
        *,
        asset_names: Sequence[str] | None = None,
        depths: np.ndarray | None = None,
        params: np.ndarray | None = None,
        indices: Sequence[int] | None = None,
        owner: object | None = None,
    ) -> None:
        cache: list | None = None
        if realizations is not None:
            if not (asset_names is None and depths is None and params is None
                    and indices is None):
                raise HazardError("build an ensemble from realizations or columns, not both")
            cache = list(realizations)
            if not cache:
                raise HazardError("ensemble must contain at least one realization")
            rows = [self._to_row(r) for r in cache]
            asset_names = list(rows[0][0])
            try:
                depths = [[values[n] for n in asset_names] for values, _ in rows]
            except KeyError as exc:
                raise HazardError(
                    f"realizations disagree on their assets: {exc.args[0]!r}"
                ) from None
            params = [row for _, row in rows]
            indices = [r.index for r in cache]
        elif asset_names is None or depths is None or (
            params is None and self.param_columns
        ):
            raise HazardError(
                f"a columnar {type(self).__name__} needs asset_names, depths"
                + (" and params" if self.param_columns else "")
            )
        self.scenario_name = scenario_name
        self.seed = seed
        self._asset_names = tuple(asset_names)
        self._depths = _read_only(depths, float)
        if self._depths.ndim != 2 or self._depths.shape[1] != len(self._asset_names):
            raise HazardError(
                f"depth matrix shape {self._depths.shape} does not match "
                f"{len(self._asset_names)} asset names"
            )
        rows = len(self._depths)
        if rows == 0:
            raise HazardError("ensemble must contain at least one realization")
        self._params = _read_only(np.empty((rows, 0)) if params is None else params, float)
        self._indices = _read_only(
            np.arange(rows) if indices is None else indices, np.int64
        )
        if self._params.shape != (rows, len(self.param_columns)) or (
            self._indices.shape != (rows,)
        ):
            raise HazardError(f"parameter rows or indices do not match {rows} depth rows")
        self._column = {name: i for i, name in enumerate(self._asset_names)}
        self._owner = owner
        self._cache = cache

    # ------------------------------------------------------------------
    # What a family declares: its row type
    # ------------------------------------------------------------------
    @staticmethod
    def _from_row(index: int, depths_m: dict[str, float], params: list[float]) -> Any:
        """The realization object of one row (depths keyed in asset order)."""
        return DepthRealization(index, depths_m)

    @staticmethod
    def _to_row(realization: Any) -> tuple[Mapping[str, float], Sequence[float]]:
        """One realization's (per-asset intensities, parameter row)."""
        return realization.depths_m, ()

    # ------------------------------------------------------------------
    # Identity, pickling, rows
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        # The columns only: rows rebuild on demand, and the unpickled
        # matrix is a copy that needs no owner pinning its buffer.
        return {**self.__dict__, "_cache": None, "_owner": None}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        for array in (self._depths, self._params, self._indices):
            array.flags.writeable = False

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (
            self.scenario_name == other.scenario_name
            and self.seed == other.seed
            and self._asset_names == other._asset_names
            and np.array_equal(self._indices, other._indices)
            and np.array_equal(self._depths, other._depths)
            and np.array_equal(self._params, other._params)
        )

    def __len__(self) -> int:
        return len(self._depths)

    def _row(self, row: int) -> Any:
        if self._cache is None:
            self._cache = [None] * len(self)
        realization = self._cache[row]
        if realization is None:
            realization = self._cache[row] = self._from_row(
                int(self._indices[row]),
                dict(zip(self._asset_names, self._depths[row].tolist())),
                self._params[row].tolist(),
            )
        return realization

    @property
    def realizations(self) -> tuple:
        """Every row as a realization object (built once, kept)."""
        return tuple(map(self._row, range(len(self))))

    def __iter__(self) -> Iterator[Any]:
        return map(self._row, range(len(self)))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.realizations[index]
        return self._row(range(len(self))[index])

    # ------------------------------------------------------------------
    # The columns
    # ------------------------------------------------------------------
    @property
    def asset_names(self) -> list[str]:
        return list(self._asset_names)

    def depth_view(self) -> np.ndarray:
        """The read-only (n_realizations, n_assets) intensity matrix itself."""
        return self._depths

    def depth_matrix(self) -> np.ndarray:
        """(n_realizations, n_assets) intensities (a writable copy)."""
        return self._depths.copy()

    def parameter_view(self) -> np.ndarray:
        """The read-only (n_realizations, k) :attr:`param_columns` matrix."""
        return self._params

    def subset(self, count: int) -> "ArrayBackedEnsemble":
        """The first ``count`` realizations (for convergence studies)."""
        if not 1 <= count <= len(self):
            raise HazardError(f"subset size {count} outside [1, {len(self)}]")
        return type(self)(
            self.scenario_name,
            seed=self.seed,
            asset_names=self._asset_names,
            depths=self._depths[:count],
            params=self._params[:count],
            indices=self._indices[:count],
            owner=self._owner,
        )

    # ------------------------------------------------------------------
    # Probability queries
    # ------------------------------------------------------------------
    def _certain_failures(
        self, names: Sequence[str], fragility: FragilityModel | None
    ) -> np.ndarray:
        """(R, len(names)) mask of certain failures: probability >= 1.

        The one rule every family's queries count by; a probabilistic
        model's uncertain failures are never counted.  A deterministic
        model's ``failure_matrix`` gives the same bits in one pass.
        """
        model = fragility or self.fragility
        try:
            columns = [self._column[n] for n in names]
        except KeyError as exc:
            raise HazardError(f"no intensity data for asset {exc.args[0]!r}") from None
        depths = self._depths[:, columns]
        if model.deterministic:
            return model.failure_matrix(depths)
        return model.probability_matrix(depths) >= 1.0

    def flood_probability(
        self, asset_name: str, fragility: FragilityModel | None = None
    ) -> float:
        """Fraction of realizations in which the asset fails."""
        mask = self._certain_failures([asset_name], fragility)
        return int(np.count_nonzero(mask)) / len(self)

    def joint_flood_probability(
        self, names: Sequence[str], fragility: FragilityModel | None = None
    ) -> float:
        """Fraction of realizations failing *all* the named assets."""
        mask = self._certain_failures(names, fragility).all(axis=1)
        return int(np.count_nonzero(mask)) / len(self)

    def conditional_flood_probability(
        self,
        target: str,
        given: str,
        fragility: FragilityModel | None = None,
    ) -> float:
        """P(target fails | given fails); NaN if the condition never occurs."""
        mask = self._certain_failures([given, target], fragility)
        given_hits = int(np.count_nonzero(mask[:, 0]))
        if given_hits == 0:
            return math.nan
        return int(np.count_nonzero(mask.all(axis=1))) / given_hits


def depth_grid(ensemble: object) -> tuple[list[str], np.ndarray] | None:
    """An ensemble's (asset names, (R, A) intensity matrix).

    The matrix is ``depth_view()`` (a columnar ensemble's read-only
    matrix itself) or, failing that, ``depth_matrix()``.  ``None`` when
    the ensemble exposes no per-asset intensity grid: it has no
    ``asset_names``, neither method, or a matrix whose shape is not
    (``len(ensemble)``, assets).  Callers then fall back to iterating
    the realizations.
    """
    names = getattr(ensemble, "asset_names", None)
    view = getattr(ensemble, "depth_view", None)
    if not callable(view):
        view = getattr(ensemble, "depth_matrix", None)
    if not names or not callable(view):
        return None
    depths = np.asarray(view())
    if depths.shape != (len(ensemble), len(names)):  # type: ignore[arg-type]
        return None
    return list(names), depths
