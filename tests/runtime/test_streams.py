"""The block replay of spawned uniform streams, against numpy itself.

``SpawnedStreams(seed).uniforms(indices, n)`` must equal, bit for bit,
``default_rng(SeedSequence(seed).spawn(count)[i]).random(n)`` for every
``i`` in ``indices`` -- for one-word, multi-word and zero seeds, for any
subset of indices in any order (resumed runs, retried rows), and for any
draw count.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RuntimeControlError
from repro.runtime.streams import MAX_SPAWN_INDEX, SpawnedStreams


def numpy_streams(seed, count: int, n: int) -> np.ndarray:
    children = np.random.SeedSequence(seed).spawn(count)
    return np.array([np.random.default_rng(c).random(n) for c in children])


seeds = st.one_of(
    st.just(0),
    st.integers(min_value=1, max_value=2**32 - 1),
    st.integers(min_value=2**32, max_value=2**64 - 1),
    st.integers(min_value=2**64, max_value=2**200),
)


@given(
    seed=seeds,
    count=st.integers(min_value=1, max_value=40),
    n=st.sampled_from([1, 2, 7, 98]),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_replay_is_numpys_spawned_streams(seed, count, n, data):
    expected = numpy_streams(seed, count, n)
    streams = SpawnedStreams(seed)
    assert np.array_equal(streams.uniforms(range(count), n), expected)
    subset = data.draw(
        st.lists(st.integers(min_value=0, max_value=count - 1), max_size=count)
    )
    got = streams.uniforms(subset, n)
    assert got.shape == (len(subset), n)
    assert np.array_equal(got, expected[subset])


@pytest.mark.parametrize("seed", [0, 20220522, 2**40 + 5, 2**64 - 1, [3, 1, 4]])
def test_replayed_generator_is_in_numpys_seeded_state(seed):
    """A replayed row is a freshly seeded child generator's draws, sequence seeds too."""
    streams = SpawnedStreams(seed)
    children = np.random.SeedSequence(seed).spawn(9)
    for index in (0, 4, 8):
        theirs = np.random.default_rng(children[index])
        assert np.array_equal(streams.uniforms([index], 98)[0], theirs.random(98))


def test_a_large_index_matches_numpy():
    seed, index = 7, 70_000
    child = np.random.SeedSequence(seed, spawn_key=(index,))
    expected = np.random.default_rng(child).random(5)
    assert np.array_equal(SpawnedStreams(seed).uniforms([index], 5)[0], expected)


@pytest.mark.parametrize("index", [-1, MAX_SPAWN_INDEX + 1])
def test_indices_outside_one_spawn_word_are_rejected(index):
    with pytest.raises(RuntimeControlError, match="stream indices"):
        SpawnedStreams(0).uniforms([0, index], 3)


def test_negative_seed_is_rejected():
    with pytest.raises(ValueError):
        SpawnedStreams(-1)


def test_empty_block():
    assert SpawnedStreams(0).uniforms([], 98).shape == (0, 98)
