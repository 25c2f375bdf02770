"""Adaptive Simpson against analytically known integrals."""

import math

import pytest

from cfmmrep.quadrature import (
    QuadratureOptions,
    adaptive_simpson,
    integrate_from_zero,
    softened_power_order,
)
from cfmmrep.errors import InvalidParameterError, NumericalError


def test_polynomial_exact():
    # Simpson is exact for cubics.
    r = adaptive_simpson(lambda x: x**3 - 2 * x + 1, 0.0, 2.0)
    assert r.value == pytest.approx(4.0 - 4.0 + 2.0, abs=1e-13)
    assert r.converged


def test_reciprocal():
    r = adaptive_simpson(lambda x: 1.0 / x, 1.0, math.e)
    assert r.value == pytest.approx(1.0, rel=1e-10)


def test_oscillatory():
    r = adaptive_simpson(math.sin, 0.0, math.pi)
    assert r.value == pytest.approx(2.0, rel=1e-10)


def test_reversed_limits():
    r = adaptive_simpson(lambda x: x, 3.0, 1.0)
    assert r.value == pytest.approx(-4.0, rel=1e-12)


def test_empty_interval():
    r = adaptive_simpson(lambda x: x, 2.0, 2.0)
    assert r.value == 0.0 and r.converged


def test_power_singularity_softened():
    # integral of u**-0.5 over [0, 1] = 2
    r = integrate_from_zero(lambda u: u**-0.5, 1.0, singular_exponent=0.5)
    assert r.value == pytest.approx(2.0, rel=1e-9)


@pytest.mark.parametrize("s", [0.2, 0.5, 0.7, 0.9])
def test_power_singularity_range(s):
    exact = 1.0 / (1.0 - s)
    r = integrate_from_zero(lambda u: u**-s, 1.0, singular_exponent=s)
    assert r.value == pytest.approx(exact, rel=1e-9), f"s={s}"


def test_log_singularity_without_softening():
    # integral of -log(u) over [0, 1] = 1; mild enough for the plain rule.
    r = integrate_from_zero(lambda u: -math.log(u) if u > 0 else 0.0, 1.0)
    assert r.value == pytest.approx(1.0, rel=1e-9)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_non_finite_node_raises(bad):
    # A non-finite node value used to count as 0, giving a wrong integral.
    with pytest.raises(NumericalError, match="at 0.5$"):
        adaptive_simpson(lambda x: bad if x == 0.5 else 1.0, 0.0, 1.0)


def test_nan_error_estimate_stops_at_once():
    # The ends sum past the float max, so the first split's midpoint is inf
    # and its error estimate NaN, which no depth can improve: the cell comes
    # back unconverged after five integrand calls, not 2**17 + 1 at depth 16.
    calls = []

    def one(x):
        calls.append(x)
        return 1.0

    r = adaptive_simpson(one, 1e308, 1.7e308, QuadratureOptions(max_depth=16))
    assert len(calls) == 5
    assert not r.converged and math.isnan(r.error)
    with pytest.raises(NumericalError, match="did not converge"):
        r.checked("the wide cell")


def test_infinite_sum_is_not_converged():
    # Both quarter points overflow the Simpson sum to inf; its inf error
    # estimate must not pass its inf tolerance.
    r = adaptive_simpson(lambda x: 1e308 if x in (1.0, 3.0) else 0.0, 0.0, 4.0)
    assert not r.converged
    with pytest.raises(NumericalError, match="did not converge"):
        r.checked("the overflowing cell")


def test_softening_order():
    assert softened_power_order(0.0) == 1
    assert softened_power_order(0.5) == 4
    with pytest.raises(InvalidParameterError):
        softened_power_order(1.0)


def test_relative_control_on_tiny_integrals():
    # A narrow Gaussian bump of mass ~1e-9: per-cell relative control must
    # hold the relative error even far below the absolute floor.
    scale = 1e-9
    f = lambda x: scale * math.exp(-0.5 * ((x - 0.5) / 0.01) ** 2)
    exact = scale * 0.01 * math.sqrt(2 * math.pi)
    opts = QuadratureOptions(rel_tol=1e-10, abs_tol=1e-300)
    cells = [0.0, 0.4, 0.5, 0.6, 1.0]
    total = sum(adaptive_simpson(f, a, b, opts).value for a, b in zip(cells, cells[1:]))
    assert total == pytest.approx(exact, rel=1e-8)


def test_options_validation():
    with pytest.raises(InvalidParameterError):
        QuadratureOptions(rel_tol=0.0)
    with pytest.raises(InvalidParameterError):
        QuadratureOptions(max_depth=0)
