"""Legendre tables, largest zeros, and the Bessel constant."""

import math

import numpy as np
import numpy.polynomial.legendre as npleg
import pytest

from spinrelay.legendre import BESSEL_J0_FIRST_ZERO, legendre_largest_zero


def j0_power_series(x: float) -> float:
    """Oracle: J0(x) = sum_k (-1)^k (x^2/4)^k / (k!)^2, fine for |x| < 10."""
    term, total, q = 1.0, 1.0, -0.25 * x * x
    for k in range(1, 60):
        term *= q / (k * k)
        total += term
        if abs(term) < 1e-18:
            break
    return total


def _legendre_p(degree, x):
    """Oracle: P_degree(x) from numpy's Legendre module."""
    return npleg.legval(x, [0.0] * degree + [1.0])


# npleg.legvander builds the closed-form optimal encoding: its P_L tables
# must be exact at x = 1, vanish at known roots and stay bounded on [-1, 1]

def test_table_at_one():
    np.testing.assert_allclose(npleg.legvander(1.0, 3)[0], [1.0, 1.0, 1.0, 1.0],
                               atol=0)


def test_known_roots_vanish():
    assert abs(npleg.legvander(1 / math.sqrt(3), 2)[0, 2]) < 1e-14
    assert abs(npleg.legvander(math.sqrt(3 / 5), 3)[0, 3]) < 1e-14


def test_values_bounded_on_interval():
    gen = np.random.default_rng(8)
    for x in gen.uniform(-1.0, 1.0, 25):
        table = npleg.legvander(x, 40)[0]
        assert table[0] == 1.0
        assert np.all(np.abs(table) <= 1.0 + 1e-12)


class TestLargestZero:
    def test_analytic_values(self):
        assert legendre_largest_zero(1) == 0.0
        assert abs(legendre_largest_zero(2) - 1 / math.sqrt(3)) < 1e-13
        assert abs(legendre_largest_zero(3) - math.sqrt(3 / 5)) < 1e-13

    def test_rejects_degree_zero(self):
        with pytest.raises(ValueError):
            legendre_largest_zero(0)

    def test_residual_up_to_200(self):
        for n in range(2, 201):
            x = legendre_largest_zero(n)
            assert abs(_legendre_p(n, x)) < 1e-11, f"P_{n} residual too big"

    def test_strictly_increasing(self):
        roots = [legendre_largest_zero(n) for n in range(1, 201)]
        assert all(a < b for a, b in zip(roots, roots[1:]))

    def test_bessel_asymptote(self):
        n = 101
        value = (1.0 - legendre_largest_zero(n)) * 2.0 * n * n
        target = BESSEL_J0_FIRST_ZERO ** 2
        assert abs(value - target) / target < 0.02

    def test_large_degree_converges(self):
        x = legendre_largest_zero(10_000)
        assert 0.9999999 < x < 1.0
        # leggauss is an independent oracle for moderate n
        assert abs(legendre_largest_zero(500) - npleg.leggauss(500)[0][-1]) < 1e-13


class TestBesselZero:
    def test_embedded_constant_matches_series_root(self):
        lo, hi = 2.0, 3.0
        assert j0_power_series(lo) > 0 > j0_power_series(hi)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if j0_power_series(lo) * j0_power_series(mid) <= 0:
                hi = mid
            else:
                lo = mid
        assert abs(BESSEL_J0_FIRST_ZERO - 0.5 * (lo + hi)) < 1e-12

    def test_is_a_zero_of_j0(self):
        assert abs(j0_power_series(BESSEL_J0_FIRST_ZERO)) < 1e-12

    def test_matches_coarse_value(self):
        assert abs(BESSEL_J0_FIRST_ZERO - 2.4) < 5e-3
