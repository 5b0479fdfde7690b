"""Bitwise block replay of a run's per-realization uniform streams.

Realization ``i`` of a run seeded with ``seed`` draws its coarse-mesh
dropout from its own numpy stream::

    np.random.default_rng(np.random.SeedSequence(seed).spawn(count)[i]).random(n)

Building those objects one realization at a time (spawn, hash the
child's entropy pool, seed a ``PCG64``, draw) costs ~20 us a row.
:class:`SpawnedStreams` produces the same doubles, bit for bit, for a
whole block of realizations at once:

* **Child hashing.**  A child's entropy is the run entropy (padded to
  the four-word pool) followed by its spawn word ``i``.  Everything
  before the spawn word is shared by every child, so it is mixed once
  in Python ints; only the spawn word's mixing and the eight-word
  ``generate_state(4, uint64)`` are vectorized over the block's rows.
* **PCG64 jump-ahead.**  Seeding and every step of PCG64 are affine in
  the two 128-bit seed halves, so the state behind draw ``k`` is
  ``P_k * initstate + Q_k * inc mod 2**128`` with constants ``P_k``,
  ``Q_k`` precomputed per draw count.  The block's states come from one
  float64 matrix product of the seed words' 16-bit limbs with the
  constants' 32-bit limbs, one limb at a time -- every partial sum stays
  below ``2**53``, so the product is exact -- followed by a carry pass
  on ``uint64``, PCG64's XSL-RR output and ``random()``'s
  ``(x >> 11) * 2**-53``.

Nothing is kept per realization, and the largest array is one block's
``(rows, n)`` limb or draw matrix.  Spawn indices are limited to
``[0, 2**32)``: numpy encodes larger ones as two spawn words, a layout
no run of this package reaches.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.errors import RuntimeControlError

__all__ = ["SpawnedStreams", "MAX_SPAWN_INDEX"]

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
# numpy's SeedSequence hashing constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
#: PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

#: Largest realization index whose spawn key is one 32-bit word.
MAX_SPAWN_INDEX = _MASK32


def _entropy_words(entropy) -> list[int]:
    """``SeedSequence``'s uint32 coercion of an int or a sequence of ints."""
    if isinstance(entropy, (int, np.integer)):
        value = int(entropy)  # SeedSequence has rejected negative entropy
        words = [value & _MASK32]
        value >>= 32
        while value:
            words.append(value & _MASK32)
            value >>= 32
        return words
    return [word for part in entropy for word in _entropy_words(part)]


def _hashmix(value: int, const: int) -> tuple[int, int]:
    value ^= const
    const = (const * _MULT_A) & _MASK32
    value = (value * const) & _MASK32
    return value ^ (value >> _XSHIFT), const


def _mix(x: int, y: int) -> int:
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> _XSHIFT)


def _shared_pool(entropy) -> tuple[list[int], int]:
    """The entropy pool of every child, mixed up to its spawn word.

    Returns the pool and the hash constant the spawn word's mixing
    starts from.  A child's run entropy is padded to the pool size
    because its spawn key is non-empty.
    """
    run = _entropy_words(entropy)
    run += [0] * (_POOL_SIZE - len(run))
    const = _INIT_A
    pool = []
    for word in run[:_POOL_SIZE]:
        mixed, const = _hashmix(word, const)
        pool.append(mixed)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                mixed, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], mixed)
    for word in run[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            mixed, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], mixed)
    return pool, const


def _limbs(value: int, bits: int, count: int) -> list[int]:
    mask = (1 << bits) - 1
    return [(value >> (bits * i)) & mask for i in range(count)]


@lru_cache(maxsize=8)
def _jump_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (4, 16, n) limb matrices and (4, n) biases taking seed words to states.

    ``table[c]`` row ``2w + h`` multiplies the ``h``-th 16-bit half of
    seed word ``w``; its column ``k`` accumulates 32-bit limb ``c`` of the
    state behind draw ``k + 1``.  Seed words 0-3 form ``initstate`` (words
    0, 1 its high half), words 4-7 ``initseq`` (likewise), and PCG64
    steps with ``inc = 2 * initseq + 1``.
    """
    # state = p * initstate + q * inc, through srandom's step, add, step.
    p, q = 0, 1
    p, q = p + 1, q
    p, q = (p * _PCG_MULT) & _MASK128, (q * _PCG_MULT + 1) & _MASK128
    # The 16-bit limb position of each seed-word half within its 128-bit value.
    position = [4, 5, 6, 7, 0, 1, 2, 3]
    table = np.zeros((4, 16, n))
    bias = np.zeros((4, n))
    for k in range(n):
        p, q = (p * _PCG_MULT) & _MASK128, (q * _PCG_MULT + 1) & _MASK128
        for w in range(8):
            coeff = p if w < 4 else (2 * q) & _MASK128
            for h in range(2):
                shifted = (coeff << (16 * position[2 * (w % 4) + h])) & _MASK128
                table[:, 2 * w + h, k] = _limbs(shifted, 32, 4)
        bias[:, k] = _limbs(q, 32, 4)
    table.flags.writeable = False
    bias.flags.writeable = False
    return table, bias


class SpawnedStreams:
    """The uniform streams of ``SeedSequence(seed).spawn(count)``, by index."""

    def __init__(self, seed) -> None:
        pool, const = _shared_pool(np.random.SeedSequence(seed).entropy)
        # Per pool word, what every child shares: the hash constant its
        # spawn word is mixed with, and the pool word's half of _mix.
        self._spawn_mix = []
        for word in pool:
            self._spawn_mix.append((const, (_MIX_MULT_L * word) & _MASK32))
            const = (const * _MULT_A) & _MASK32

    def _state_words(self, indices: Sequence[int]) -> np.ndarray:
        """Each child's ``generate_state(8)`` words, as (rows, 8) uint32."""
        index = np.asarray(indices, dtype=np.int64).reshape(-1)
        if index.size and (index.min() < 0 or index.max() > MAX_SPAWN_INDEX):
            raise RuntimeControlError(
                f"stream indices must lie in [0, {MAX_SPAWN_INDEX}]"
            )
        word = index.astype(np.uint32)
        pool = []
        for const, left in self._spawn_mix:
            # _hashmix(word, const), then _mix(shared pool word, that).
            mixed = word ^ np.uint32(const)
            mixed *= np.uint32((const * _MULT_A) & _MASK32)
            mixed ^= mixed >> np.uint32(_XSHIFT)
            mixed *= np.uint32(_MIX_MULT_R)
            mixed = np.uint32(left) - mixed
            mixed ^= mixed >> np.uint32(_XSHIFT)
            pool.append(mixed)
        words = np.empty((len(word), 8), dtype=np.uint32)
        const = _INIT_B
        for dst in range(8):
            data = pool[dst % _POOL_SIZE] ^ np.uint32(const)
            const = (const * _MULT_B) & _MASK32
            data *= np.uint32(const)
            data ^= data >> np.uint32(_XSHIFT)
            words[:, dst] = data
        return words

    def uniforms(self, indices: Sequence[int], n: int) -> np.ndarray:
        """(rows, n) draws: row ``r`` is stream ``indices[r]``'s ``random(n)``."""
        words = self._state_words(indices)
        rows = len(words)
        if n < 1 or rows == 0:
            return np.empty((rows, max(n, 0)))
        table, bias = _jump_tables(n)
        halves = np.empty((rows, 16))
        halves[:, 0::2] = words & np.uint32(0xFFFF)
        halves[:, 1::2] = words >> np.uint32(16)

        def limb(c: int) -> np.ndarray:
            # One (rows, n) limb at a time keeps every temporary small.
            sums = halves @ table[c]
            sums += bias[c]
            return sums.astype(np.uint64)

        low = limb(0)
        v1 = limb(1)
        v1 += low >> np.uint64(32)
        low &= np.uint64(_MASK32)
        low |= v1 << np.uint64(32)
        v2 = limb(2)
        v2 += v1 >> np.uint64(32)
        v3 = limb(3)
        v3 += v2 >> np.uint64(32)
        v2 &= np.uint64(_MASK32)
        # XSL-RR: rotate (high ^ low) right by the state's top six bits.
        mixed = v3 << np.uint64(32)
        mixed |= v2
        mixed ^= low
        rot = (v3 >> np.uint64(26)) & np.uint64(63)
        out = mixed >> rot
        mixed <<= (np.uint64(64) - rot) & np.uint64(63)
        out |= mixed
        out >>= np.uint64(11)
        return out * (1.0 / 9007199254740992.0)
