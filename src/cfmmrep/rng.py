"""Seeded random numbers for reproducible simulations.

Uniforms come from SplitMix64 (Steele, Lea & Flood's 64-bit mixing
generator), which is fully specified by integer arithmetic and therefore
produces identical streams on every platform.  Normals are drawn by
inverse-CDF so the whole pipeline is one uniform per variate.  Draws come
in batches; a batch of n gives the same numbers as n single draws: a batch
of normals is one norm_invs call, normal() one call of the global norm_inv.

Draw k mixes the state seed + k * gamma, so a block of states is mixed at
once: state k sits in bits [128k, 128k + 128) of one int, its lane.  A mask
after every shift drops what a lane receives from the lane above, and a lane
below 2**64 times a 64-bit constant stays below 2**128, so no carry crosses
lanes.  Ints become bytes in the host's byte order, to line up with its words.
"""

import sys
from array import array
from functools import lru_cache

from .normal import norm_inv, norm_invs

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_BLOCK = 1024
_LANE = (1 << 128) - 1
_ONES = ((1 << 128 * _BLOCK) - 1) // _LANE  # 1 in every lane
_LANE_MASK = _ONES * _MASK64
_ODD_MASK = _ONES * ((1 << 54) - 2)  # bits 1..53 of every lane
# (k + 1) * gamma in lane k; with x = 2**128, (x - 1) * sum (k + 1) x**k = n x**n - sum x**k.
_COUNTERS = _GAMMA * (((_BLOCK << 128 * _BLOCK) - _ONES) // _LANE)


def _unpack(lanes: int, m: int, order: str) -> list:
    """The values of the low m lanes, each below 2**64, of a packed int."""
    words = array("Q", lanes.to_bytes(16 * m, order))
    if order != sys.byteorder:
        words.byteswap()
    return words[::2 if order == "little" else -2].tolist()


@lru_cache(maxsize=2)  # a run draws blocks of one or two sizes
def _block(m: int) -> tuple:
    cut = (1 << 128 * m) - 1  # m lanes of 1, (k + 1) * gamma, 64 bits and odd bits
    return _ONES & cut, _COUNTERS & cut, _LANE_MASK & cut, _ODD_MASK & cut


class SplitMix64:
    """64-bit counter-based generator; one multiply-xor-shift mix per draw."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def _lanes(self, n: int, odd: bool) -> list:
        state, out = self._state, []
        for start in range(0, n, _BLOCK):
            m = min(_BLOCK, n - start)
            ones, counters, mask, odd_mask = _block(m)
            s = (state * ones + counters) & mask
            s = ((s ^ ((s >> 30) & mask)) * 0xBF58476D1CE4E5B9) & mask
            s = ((s ^ ((s >> 27) & mask)) * 0x94D049BB133111EB) & mask
            s ^= (s >> 31) & mask
            if odd:  # 2 * (z >> 11) + 1: bits 11..63 of z to bits 1..53, bit 0 set
                s = ((s >> 10) & odd_mask) | ones
            out += _unpack(s, m, sys.byteorder)
            state = (state + m * _GAMMA) & _MASK64
        self._state = state
        return out

    def _next_uint64s(self, n: int) -> list:
        return self._lanes(n, False)

    def _uniforms(self, n: int) -> list:
        # ((z >> 11) + 0.5) * 2**-53 in (0, 1]: float(2k + 1) rounds as 2 * (k + 0.5),
        # and the top k = 2**53 - 1 gives (2**54 - 1) * 2**-54, which rounds to 1.0.
        return [m * 2.0 ** -54 for m in self._lanes(n, True)]

    def next_uint64(self) -> int:
        return self._next_uint64s(1)[0]

    def uniform(self) -> float:
        return self._uniforms(1)[0]

    def normal(self) -> float:
        return norm_inv(self.uniform())

    def normals(self, n: int) -> list:
        """The next n standard normals, from the list kernel norm_invs."""
        return norm_invs(self._uniforms(n))
