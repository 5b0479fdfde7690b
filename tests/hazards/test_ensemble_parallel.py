"""Parallel ensemble generation must be bit-identical to serial.

The two-pass design (serial parameter pass + spawned per-realization
dropout rngs) makes the output independent of how the realization pass is
scheduled; these tests pin that guarantee for worker counts 1 to 4.  A
pooled run sends one task per ``block_rows`` block to ``min(n_jobs,
blocks)`` workers, so ``COUNT`` spans more than four blocks, the last
one ragged, for every worker count to run several blocks.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import HazardError
from repro.hazards.hurricane.ensemble import params_from_row
from repro.hazards.hurricane.standard import standard_oahu_generator

COUNT = 4 * 112 + 3
SEED = 90210


@pytest.fixture(scope="module")
def generator():
    return standard_oahu_generator()


@pytest.fixture(scope="module")
def serial(generator):
    return generator.generate(count=COUNT, seed=SEED)


def test_parallel_matches_serial_bitwise(generator, serial):
    parallel = generator.generate(count=COUNT, seed=SEED, n_jobs=4)
    assert np.array_equal(serial.depth_matrix(), parallel.depth_matrix())


def test_count_spans_more_blocks_than_workers(generator):
    blocks = math.ceil(COUNT / generator.block_rows)
    assert blocks > 4 and COUNT % generator.block_rows


@pytest.mark.parametrize("n_jobs", [2, 3])
def test_any_worker_count_matches_serial_bitwise(generator, serial, n_jobs):
    parallel = generator.generate(count=COUNT, seed=SEED, n_jobs=n_jobs)
    assert np.array_equal(serial.depth_matrix(), parallel.depth_matrix())


def test_parallel_preserves_parameter_stream(generator, serial):
    parallel = generator.generate(count=COUNT, seed=SEED, n_jobs=4)
    for a, b in zip(serial, parallel):
        assert a.index == b.index
        assert a.params == b.params


def test_sample_all_parameters_matches_generated(generator, serial):
    params = generator.sample_all_parameters(COUNT, SEED)
    assert [r.params for r in serial] == [params_from_row(p) for p in params]


def test_invalid_n_jobs_rejected(generator):
    with pytest.raises(HazardError):
        generator.generate(count=4, seed=1, n_jobs=0)
