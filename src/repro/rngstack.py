"""Many seeds' ``default_rng`` streams in one vectorized NumPy pass.

``random_stack(seeds, k)[i]`` equals
``np.random.default_rng(seeds[i]).random(k)`` bitwise, for any seed in
``[0, 2**64)``.  It replays, on arrays of seeds at once, the three
stages a ``default_rng(seed)`` generator runs through:

1. ``SeedSequence(seed)``: the ``hashmix``/``mix`` pool mixing over the
   seed's two little-endian uint32 words, zero-padded to the 4-word
   pool (a shorter entropy array hashes the same zeros), then
   ``generate_state(4, uint64)``.  The hash-constant sequence does not
   depend on the seed, so it is precomputed.
2. ``PCG64``'s seeding and 128-bit LCG (O'Neill, "PCG: A Family of
   Simple Fast Space-Efficient Statistically Good Algorithms for Random
   Number Generation"), stepped once per draw for all seeds together on
   ``(hi, lo)`` uint64 pairs, with the 64x64 -> 128 multiply done in
   32-bit halves.
3. The XSL-RR output, then ``(x >> 11) * 2**-53`` (``next_double``).

NumPy fixes its bit-generator streams across releases; the property
tests compare this module against ``default_rng`` directly, so a stream
change fails loudly.  The pass has a fixed cost of a few hundred NumPy
calls, so below :data:`CROSSOVER` seeds a ``default_rng`` loop is
faster.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["CROSSOVER", "random_stack"]

#: Stack size from which a :func:`random_stack` pass beats one
#: ``default_rng`` per seed.  Measured on ``rows._draw_stack`` (a 2-vCPU
#: x86-64 VM, best of 15): the pass breaks even at about 24 rows for m 4
#: and 40-48 rows for m 8 (25 draws per seed; its fixed cost grows with
#: the draw count), and costs 0.3-0.6x the loop from 64 rows on.
CROSSOVER = 64

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
# The multiplier's high and low uint64 words, and the low word's halves.
_PCG_HI, _PCG_LO = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & _M64)
_PCG_LO0, _PCG_LO1 = np.uint64(_PCG_MULT & _M32), np.uint64(_PCG_MULT >> 32 & _M32)
_U32, _S32 = np.uint64(_M32), np.uint64(32)


def _hash_consts(init: int, mult: int, count: int) -> list[np.uint32]:
    """The running hash constant: ``init``, then times ``mult`` each call."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _M32)
    return [np.uint32(c) for c in consts]


# mix_entropy hashes each pool word once, then once per ordered pair of
# distinct pool words; generate_state hashes 8 words for 4 uint64s.
_HASH_A = _hash_consts(_INIT_A, _MULT_A, _POOL + _POOL * (_POOL - 1))
_HASH_B = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL)
_SHIFT16 = np.uint32(16)
_MIX_L32, _MIX_R32 = np.uint32(_MIX_L), np.uint32(_MIX_R)


def _hashmix(value: np.ndarray, consts: list[np.uint32], i: int) -> np.ndarray:
    value = (value ^ consts[i]) * consts[i + 1]
    return value ^ (value >> _SHIFT16)


def _seed_words(seeds: np.ndarray) -> list[np.ndarray]:
    """``SeedSequence(seed).generate_state(4, uint64)`` per seed, as four
    uint64 arrays."""
    entropy = [
        (seeds & np.uint64(_M32)).astype(np.uint32),
        (seeds >> np.uint64(32)).astype(np.uint32),
    ]
    zero = np.zeros_like(entropy[0])
    pool = [_hashmix(entropy[i] if i < 2 else zero, _HASH_A, i) for i in range(_POOL)]
    c = _POOL
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                mixed = _MIX_L32 * pool[dst] - _MIX_R32 * _hashmix(pool[src], _HASH_A, c)
                pool[dst] = mixed ^ (mixed >> _SHIFT16)
                c += 1
    words = [_hashmix(pool[i % _POOL], _HASH_B, i).astype(np.uint64) for i in range(2 * _POOL)]
    return [words[2 * i] | (words[2 * i + 1] << np.uint64(32)) for i in range(_POOL)]


def _step(
    hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One LCG step, ``state * MULT + inc (mod 2**128)``, on ``(hi, lo)``
    uint64 pairs; the 64x64 -> 128 product of the low words is done in
    32-bit halves."""
    lo0, lo1 = lo & _U32, lo >> _S32
    p01, p10 = lo0 * _PCG_LO1, lo1 * _PCG_LO0
    mid = (lo0 * _PCG_LO0 >> _S32) + (p01 & _U32) + (p10 & _U32)
    carry = lo1 * _PCG_LO1 + (p01 >> _S32) + (p10 >> _S32) + (mid >> _S32)
    prod_lo = lo * _PCG_LO
    new_lo = prod_lo + inc_lo
    new_hi = carry + lo * _PCG_HI + hi * _PCG_LO + inc_hi + (new_lo < prod_lo)
    return new_hi, new_lo


def random_stack(seeds: Sequence[int] | np.ndarray, k: int) -> np.ndarray:
    """The ``(n, k)`` matrix whose row ``i`` is
    ``np.random.default_rng(seeds[i]).random(k)``, bitwise.

    Every seed must lie in ``[0, 2**64)``; callers route any other seed
    to ``default_rng`` itself.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    s0, s1, s2, s3 = _seed_words(seeds)
    one = np.uint64(1)
    # pcg64_set_seed: initstate = (s0, s1), inc = initseq << 1 | 1 with
    # initseq = (s2, s3); the state steps from 0 (to inc), adds
    # initstate and steps again.
    inc_hi, inc_lo = (s2 << one) | (s3 >> np.uint64(63)), (s3 << one) | one
    lo = inc_lo + s1
    hi, lo = _step(inc_hi + s0 + (lo < s1), lo, inc_hi, inc_lo)
    # Every draw steps first, then outputs: state rows, one per draw.
    his = np.empty((k, len(seeds)), dtype=np.uint64)
    los = np.empty_like(his)
    for j in range(k):
        hi, lo = his[j], los[j] = _step(hi, lo, inc_hi, inc_lo)
    # XSL-RR: rotate (hi ^ lo) right by hi's top 6 bits.
    x = his ^ los
    rot = his >> np.uint64(58)
    x = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
    return np.ascontiguousarray(((x >> np.uint64(11)).astype(np.float64) * 2.0**-53).T)
