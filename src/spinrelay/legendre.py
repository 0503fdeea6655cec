"""Largest Legendre zeros and the leading Bessel zero.

The zero finder runs the three-term recurrence

    (n+1) P_{n+1}(x) = (2n+1) x P_n(x) - n P_{n-1}(x),

which is numerically stable on [-1, 1].  The largest zero of P_n controls
the per-observer shrink factor of the optimal entangled encoding, so it is
computed to near machine precision with a bracketed, bisection-safeguarded
Newton iteration; unlike ``numpy.polynomial.legendre.legroots`` it costs
O(n) per Newton step, not O(n^3).  Everything else uses
``numpy.polynomial.legendre`` directly.
"""

from __future__ import annotations

from functools import lru_cache
import math

#: first positive zero of the Bessel function J0; verified against a
#: power-series root-find in the test suite, embedded here as a constant.
BESSEL_J0_FIRST_ZERO = 2.404825557695773


def _pn_pair(n: int, x: float) -> tuple[float, float]:
    """(P_n(x), P_{n-1}(x)) for scalar x, n >= 1."""
    p_prev, p = 1.0, x
    for j in range(1, n):
        p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
    return p, p_prev


@lru_cache(maxsize=None)
def legendre_largest_zero(n: int) -> float:
    """Largest root of P_n, to absolute accuracy better than 1e-13.

    Newton iteration started from the Bessel-zero asymptotic
    cos(xi_0 / (n + 1/2)), safeguarded by bisection inside a bracket that
    provably contains only the largest zero: with nu = n + 1/2 the first
    zero angle is below pi/nu and the second above 1.75 pi/nu, so
    [cos(3.8/nu), 1] straddles exactly one sign change.
    """
    if n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    if n == 1:
        return 0.0
    nu = n + 0.5
    lo, hi = math.cos(3.8 / nu), 1.0  # P_n(lo) < 0 < P_n(hi)
    x = math.cos(BESSEL_J0_FIRST_ZERO / nu)
    for _ in range(100):
        p, p_prev = _pn_pair(n, x)
        if p == 0.0:
            return x
        if p < 0.0:
            lo = x
        else:
            hi = x
        dp = n * (x * p - p_prev) / (x * x - 1.0)
        x_new = x - p / dp
        if not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) <= 5e-16:
            return x_new
        x = x_new
    raise RuntimeError(f"largest-zero iteration did not converge for n = {n}")
