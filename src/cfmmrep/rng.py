"""Seeded random numbers for reproducible simulations.

Uniforms come from SplitMix64 (Steele, Lea & Flood's 64-bit mixing
generator), which is fully specified by integer arithmetic and therefore
produces identical streams on every platform.  Normals are drawn by
inverse-CDF so the whole pipeline is one uniform per variate.  Draws come
in batches; a batch of n gives the same numbers as n single draws.
"""

from .normal import norm_inv

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """64-bit counter-based generator; one multiply-xor-shift mix per draw."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def _next_uint64s(self, n: int) -> list:
        state = self._state
        out = []
        for _ in range(n):
            state = (state + 0x9E3779B97F4A7C15) & _MASK64
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            out.append(z ^ (z >> 31))
        self._state = state
        return out

    def _uniforms(self, n: int) -> list:
        # 53-bit mantissa, offset half a step: lands strictly inside (0, 1).
        return [((z >> 11) + 0.5) * 2.0 ** -53 for z in self._next_uint64s(n)]

    def next_uint64(self) -> int:
        return self._next_uint64s(1)[0]

    def uniform(self) -> float:
        return self._uniforms(1)[0]

    def normal(self) -> float:
        return norm_inv(self.uniform())

    def normals(self, n: int) -> list:
        """The next n standard normals."""
        return [norm_inv(u) for u in self._uniforms(n)]
