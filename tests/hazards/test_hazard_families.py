"""Contract tests shared by every hazard family's ensemble.

Hurricane, flood and earthquake ensembles and the plain
:class:`~repro.hazards.columnar.ArrayBackedEnsemble` are one columnar
type: the contract tests below run over all four.

The flood and earthquake generators are pinned bit for bit: the golden
digests are the sha256 (first 16 hex digits) of the float64 bytes of
``generate(count=500, seed=7)`` over the standard Oahu catalog.
"""

from __future__ import annotations

import hashlib
import pickle

import numpy as np
import pytest

from repro.errors import HazardError
from repro.geo import build_oahu_catalog
from repro.hazards.base import HazardEnsemble, HazardRealization
from repro.hazards.columnar import ArrayBackedEnsemble, depth_grid
from repro.hazards.earthquake import (
    EarthquakeEnsemble,
    EarthquakeGenerator,
    standard_oahu_fault,
)
from repro.hazards.flood import FloodGenerator, standard_oahu_flood
from repro.hazards.fragility import LogisticFragility
from repro.hazards.hurricane.ensemble import params_to_row
from repro.hazards.hurricane.standard import shared_standard_generator

GOLDEN_COUNT = 500
GOLDEN_SEED = 7


def digest(values) -> str:
    array = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
    return hashlib.sha256(array.tobytes()).hexdigest()[:16]


@pytest.fixture(scope="module")
def catalog():
    return build_oahu_catalog()


def test_flood_generation_is_pinned(catalog):
    ensemble = FloodGenerator(catalog, standard_oahu_flood()).generate(
        count=GOLDEN_COUNT, seed=GOLDEN_SEED
    )
    assert digest(ensemble.depth_matrix()) == "bb952eadd1809aae"
    assert digest([r.discharge_m3s for r in ensemble]) == "e4dc4e1007f0f148"
    assert digest([r.stage_m for r in ensemble]) == "a0e9d2ae5cb4866d"


def test_earthquake_generation_is_pinned(catalog):
    ensemble = EarthquakeGenerator(catalog, standard_oahu_fault()).generate(
        count=GOLDEN_COUNT, seed=GOLDEN_SEED
    )
    assert digest(ensemble.depth_matrix()) == "75a8b44e2a87cca9"
    assert digest([r.magnitude for r in ensemble]) == "949b84bb621e767e"
    epicenters = [[r.epicenter.lat, r.epicenter.lon] for r in ensemble]
    assert digest(epicenters) == "b68482500740e0c2"


# ----------------------------------------------------------------------
# The columnar contract every family's ensemble keeps
# ----------------------------------------------------------------------
ROWS = 12

#: family -> (public intensity mapping, parameter row) of one realization.
ROW_VALUES = {
    "array": lambda r: (r.depths_m, []),
    "hurricane": lambda r: (r.inundation.depths_m, params_to_row(r.params)),
    "flood": lambda r: (r.depths_m, [r.discharge_m3s, r.stage_m]),
    "earthquake": lambda r: (
        r.pga_g, [r.magnitude, r.epicenter.lat, r.epicenter.lon]
    ),
}


@pytest.fixture(scope="module")
def ensembles(catalog):
    depths = np.random.default_rng(11).uniform(0.0, 1.2, size=(ROWS, 5))
    return {
        "array": ArrayBackedEnsemble(
            "array-test",
            seed=11,
            asset_names=[f"asset-{i}" for i in range(5)],
            depths=depths,
        ),
        "hurricane": shared_standard_generator().generate(ROWS, seed=3),
        "flood": FloodGenerator(catalog, standard_oahu_flood()).generate(ROWS, seed=3),
        "earthquake": EarthquakeGenerator(catalog, standard_oahu_fault()).generate(
            ROWS, seed=3
        ),
    }


@pytest.fixture(params=sorted(ROW_VALUES))
def family(request):
    return request.param


def fresh(ensemble):
    """An equal ensemble with no rows built yet (unpickled columns)."""
    return pickle.loads(pickle.dumps(ensemble))


def columns(ensemble, **overrides):
    """The constructor's column keywords for ``ensemble``."""
    kwargs = dict(
        seed=ensemble.seed,
        asset_names=ensemble.asset_names,
        depths=ensemble.depth_view(),
        params=ensemble.parameter_view(),
    )
    kwargs.update(overrides)
    return kwargs


def test_is_one_columnar_type(ensembles, family):
    ensemble = ensembles[family]
    assert isinstance(ensemble, ArrayBackedEnsemble)
    assert isinstance(ensemble, HazardEnsemble)
    assert isinstance(ensemble[0], HazardRealization)
    assert depth_grid(ensemble) == (ensemble.asset_names, ensemble.depth_view())
    assert ensemble.parameter_view().shape == (ROWS, len(ensemble.param_columns))


def test_matrices_are_read_only(ensembles, family):
    ensemble = ensembles[family]
    for view in (ensemble.depth_view(), ensemble.parameter_view()):
        assert not view.flags.writeable
    with pytest.raises(ValueError):
        ensemble.depth_view()[0, 0] = 99.0
    copy = ensemble.depth_matrix()
    copy[0, 0] = -1.0  # a private copy
    assert ensemble.depth_view()[0, 0] != -1.0


def test_rows_are_the_matrix_rows(ensembles, family):
    ensemble = fresh(ensembles[family])
    names = ensemble.asset_names
    depths, params = ensemble.depth_view(), ensemble.parameter_view()
    assert [r.index for r in ensemble] == list(range(ROWS))
    for i, realization in enumerate(ensemble):
        intensities, row = ROW_VALUES[family](realization)
        assert list(intensities) == names
        assert list(intensities.values()) == depths[i].tolist()
        assert list(row) == params[i].tolist()
        threshold = ensemble.fragility.threshold_m
        expected = {n for n, d in zip(names, depths[i]) if d > threshold}
        assert realization.failed_assets() == frozenset(expected)
    assert ensemble[3] is ensemble[3]  # built once, kept
    assert ensemble[-1] is ensemble[ROWS - 1]
    assert ensemble[2:5] == ensemble.realizations[2:5]
    with pytest.raises(IndexError):
        ensemble[ROWS]


def test_realizations_round_trip(ensembles, family):
    ensemble = ensembles[family]
    rebuilt = type(ensemble)(
        ensemble.scenario_name, ensemble.realizations, ensemble.seed
    )
    assert rebuilt == ensemble
    assert rebuilt[4] is ensemble[4]  # the given objects are its rows


def test_pickling_carries_the_columns_only(ensembles, family):
    ensemble = fresh(ensembles[family])
    before = pickle.dumps(ensemble)
    list(ensemble)  # build every row
    assert len(pickle.dumps(ensemble)) == len(before)
    restored = pickle.loads(before)
    assert restored == ensemble
    assert not restored.depth_view().flags.writeable
    assert [ROW_VALUES[family](r) for r in restored] == [
        ROW_VALUES[family](r) for r in ensemble
    ]


def test_equality_reads_type_and_columns(ensembles, family):
    ensemble = ensembles[family]
    cls = type(ensemble)
    assert ensemble == cls(ensemble.scenario_name, **columns(ensemble))
    assert ensemble != cls(ensemble.scenario_name, **columns(ensemble, seed=-1))
    assert ensemble != cls("other", **columns(ensemble))
    assert ensemble != cls(ensemble.scenario_name, **columns(
        ensemble, asset_names=ensemble.asset_names[::-1]
    ))
    others = [e for f, e in ensembles.items() if f != family]
    assert all(ensemble != other for other in others)


def test_subset(ensembles, family):
    ensemble = ensembles[family]
    sub = ensemble.subset(5)
    assert type(sub) is type(ensemble) and len(sub) == 5
    assert np.array_equal(sub.depth_view(), ensemble.depth_view()[:5])
    assert [ROW_VALUES[family](r) for r in sub] == [
        ROW_VALUES[family](r) for r in ensemble.realizations[:5]
    ]
    assert sub == ensemble.subset(5)
    for count in (0, ROWS + 1):
        with pytest.raises(HazardError, match="subset size"):
            ensemble.subset(count)


def test_empty_or_misshapen_ensembles_are_rejected(ensembles, family):
    ensemble = ensembles[family]
    cls, name = type(ensemble), ensemble.scenario_name
    with pytest.raises(HazardError, match="at least one"):
        cls(name, [])
    with pytest.raises(HazardError, match="at least one"):
        cls(name, **columns(
            ensemble, depths=ensemble.depth_view()[:0],
            params=ensemble.parameter_view()[:0],
        ))
    with pytest.raises(HazardError, match="shape"):
        cls(name, **columns(ensemble, asset_names=ensemble.asset_names[1:]))
    with pytest.raises(HazardError, match="parameter rows"):
        cls(name, **columns(ensemble, params=np.zeros((ROWS, 9))))
    with pytest.raises(HazardError, match="not both"):
        cls(name, ensemble.realizations, depths=ensemble.depth_view())
    if ensemble.param_columns:
        with pytest.raises(HazardError, match="needs asset_names, depths and params"):
            cls(name, **columns(ensemble, params=None))


# ----------------------------------------------------------------------
# One certain-failure rule for every family's probability queries
# ----------------------------------------------------------------------
def certain_rate(model, column: np.ndarray) -> float:
    """The rule, by hand: the fraction of depths where P(fail) >= 1."""
    return sum(model.failure_probability(float(d)) >= 1.0 for d in column) / len(column)


@pytest.mark.parametrize(
    "family, model",
    [
        ("hurricane", LogisticFragility(midpoint_m=0.5, steepness_per_m=40.0)),
        ("flood", LogisticFragility(midpoint_m=0.5, steepness_per_m=40.0)),
        ("earthquake", LogisticFragility(midpoint_m=0.2, steepness_per_m=200.0)),
    ],
)
def test_probabilistic_fragility_counts_certain_failures(catalog, family, model):
    ensemble = {
        "hurricane": lambda: shared_standard_generator().generate(200, seed=7),
        "flood": lambda: FloodGenerator(catalog, standard_oahu_flood()).generate(
            200, seed=7
        ),
        "earthquake": lambda: EarthquakeGenerator(
            catalog, standard_oahu_fault()
        ).generate(200, seed=7),
    }[family]()
    depths = ensemble.depth_view()
    probs = np.vectorize(model.failure_probability)(depths)
    # Both kinds of cell occur: uncertain failures and certain ones.
    assert np.any((probs > 0.0) & (probs < 1.0))
    assert np.any(probs >= 1.0)
    rates = [
        ensemble.flood_probability(name, model) for name in ensemble.asset_names
    ]
    assert rates == [certain_rate(model, depths[:, j]) for j in range(depths.shape[1])]
    if isinstance(ensemble, EarthquakeEnsemble):
        assert [
            ensemble.failure_probability(name, model) for name in ensemble.asset_names
        ] == rates
    j = int(np.argmax(rates))
    a, b = ensemble.asset_names[j], ensemble.asset_names[0]
    certain = probs >= 1.0
    both = int(np.count_nonzero(certain[:, j] & certain[:, 0]))
    assert ensemble.joint_flood_probability([a, b], model) == both / len(ensemble)
    assert ensemble.conditional_flood_probability(b, a, model) == (
        both / int(np.count_nonzero(certain[:, j]))
    )


def test_threshold_queries_are_the_plain_comparison(ensembles, family):
    ensemble = ensembles[family]
    depths = ensemble.depth_view()
    threshold = ensemble.fragility.threshold_m
    for j, name in enumerate(ensemble.asset_names):
        expected = int(np.count_nonzero(depths[:, j] > threshold)) / ROWS
        assert ensemble.flood_probability(name) == expected
    with pytest.raises(HazardError, match="no intensity data"):
        ensemble.flood_probability("Atlantis Substation")
