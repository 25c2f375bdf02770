"""Adaptive Simpson quadrature.

Integrands here are nonnegative and smooth between breakpoints, so a
recursive Simpson rule with the classic (S_halves - S_whole)/15 error
estimate is enough.  A non-finite evaluation raises NumericalError: the
integrands supply their own limits at endpoints, and power-law endpoint
singularities of known exponent are removed exactly by a u = v**m change
of variable (see softened_power_order).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import InvalidParameterError, NumericalError


@dataclass(frozen=True)
class QuadratureOptions:
    """Error control for adaptive integration."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_depth: int = 60

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise InvalidParameterError("quadrature tolerances must be positive")
        if self.max_depth < 1:
            raise InvalidParameterError("max_depth must be at least 1")


DEFAULT_OPTIONS = QuadratureOptions()


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error: float
    converged: bool

    def checked(self, what: str) -> float:
        """The value, or NumericalError if the quadrature of what fell short."""
        if not self.converged:
            raise NumericalError(f"{what} did not converge (error estimate {self.error:.3g})",
                                 error=self.error)
        return self.value


def _non_finite(v: float, x: float) -> NumericalError:
    return NumericalError(f"integrand is {v} at {x}")


def adaptive_simpson(
    f: Callable[[float], float],
    a: float,
    b: float,
    opts: QuadratureOptions = DEFAULT_OPTIONS,
) -> QuadratureResult:
    """Integrate f over [a, b] to the requested tolerance."""
    if a == b:
        return QuadratureResult(0.0, 0.0, True)
    if a > b:
        r = adaptive_simpson(f, b, a, opts)
        return QuadratureResult(-r.value, r.error, r.converged)

    isfinite = math.isfinite
    fa = f(a)
    if not isfinite(fa):
        raise _non_finite(fa, a)
    fb = f(b)
    if not isfinite(fb):
        raise _non_finite(fb, b)
    m = 0.5 * (a + b)
    fm = f(m)
    if not isfinite(fm):
        raise _non_finite(fm, m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    rel_tol, max_depth = opts.rel_tol, opts.max_depth
    tol = max(opts.abs_tol, rel_tol * abs(whole))

    def recurse(lo, hi, flo, fmid, fhi, s, tol, depth):
        mid = 0.5 * (lo + hi)
        lm = 0.5 * (lo + mid)
        rm = 0.5 * (mid + hi)
        flm = f(lm)
        if not isfinite(flm):
            raise _non_finite(flm, lm)
        frm = f(rm)
        if not isfinite(frm):
            raise _non_finite(frm, rm)
        s_left = (mid - lo) / 6.0 * (flo + 4.0 * flm + fmid)
        s_right = (hi - mid) / 6.0 * (fmid + 4.0 * frm + fhi)
        s2 = s_left + s_right
        delta = (s2 - s) / 15.0
        # Accept on the inherited absolute budget or on accuracy relative to
        # the cell's own mass; the latter keeps the relative error controlled
        # even where the integral is many orders below the absolute floor.
        cell_tol = max(tol, rel_tol * abs(s2))
        if abs(delta) <= cell_tol or depth >= max_depth:
            return s2 + delta, abs(delta), abs(delta) <= cell_tol
        lv, le, lc = recurse(lo, mid, flo, flm, fmid, s_left, 0.5 * tol, depth + 1)
        rv, re, rc = recurse(mid, hi, fmid, frm, fhi, s_right, 0.5 * tol, depth + 1)
        return lv + rv, le + re, lc and rc

    value, error, converged = recurse(a, b, fa, fm, fb, whole, tol, 0)
    return QuadratureResult(value, error, converged)


def softened_power_order(exponent: float) -> int:
    """Substitution order m removing a u**(-exponent) singularity at u = 0.

    With u = v**m the transformed integrand scales like v**(m*(1-exponent)-1);
    m is chosen so that power is at least 1 (bounded, with a vanishing
    endpoint value).
    """
    if exponent <= 0.0:
        return 1
    if exponent >= 1.0:
        raise InvalidParameterError(
            f"endpoint exponent {exponent} is not integrable")
    return max(1, math.ceil(2.0 / (1.0 - exponent)))


def integrate_from_zero(
    f: Callable[[float], float],
    upper: float,
    singular_exponent: float = 0.0,
    opts: QuadratureOptions = DEFAULT_OPTIONS,
) -> QuadratureResult:
    """Integrate f over [0, upper] with a possible power singularity at 0.

    singular_exponent s means f(u) ~ u**(-s) near zero, 0 <= s < 1.
    """
    if upper <= 0.0:
        return QuadratureResult(0.0, 0.0, True)
    m = softened_power_order(singular_exponent)
    if m == 1:
        return adaptive_simpson(f, 0.0, upper, opts)

    def transformed(v: float) -> float:
        u = v**m
        if u <= 0.0:
            return 0.0
        return f(u) * m * v ** (m - 1)

    return adaptive_simpson(transformed, 0.0, upper ** (1.0 / m), opts)
