"""Encodings of a direction into N spin-1/2 systems and their observer chains.

Two families are covered:

* the parallel encoding (N identical copies), whose per-observer shrink
  factor is N/(N+2);
* the optimal entangled encoding, a superposition over the zero-projection
  states |J,0> of the total-spin blocks, J = 0..N/2 (N even), whose
  coefficient vector is the principal eigenvector of a symmetric
  tridiagonal matrix with band (J+1)/sqrt(4(J+1)^2 - 1).  Its per-observer
  shrink factor equals the largest zero of the degree-(N/2+1) Legendre
  polynomial, since that matrix is exactly the truncated Legendre Jacobi
  (Golub-Welsch) matrix.

Per-observer shrink factors multiply along a chain, so every closed form
here is a product of per-step factors; the Monte Carlo simulators sample
the same chains trajectory by trajectory for cross-checking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
import math

import numpy as np
from numpy.polynomial import legendre as npleg

from .legendre import (
    BESSEL_J0_FIRST_ZERO,
    legendre_largest_zero,
    legendre_series,
)
from .records import ChainRecord
from .rng import as_generator
from .sphere import rotate_towards, sample_cos_tilt, sample_uniform_sphere

PROTOCOLS = ("parallel", "optimal", "parallel_start")
ENCODINGS = ("parallel", "optimal")


def _require_even(n_spins: int):
    if n_spins < 2 or n_spins % 2 != 0:
        raise ValueError(
            f"the entangled encoding is defined for even N >= 2, got N = {n_spins}")


@dataclass(frozen=True)
class JacobiMatrix:
    """Symmetric tridiagonal matrix with zero diagonal.

    ``off_diagonal[J]`` links rows J and J+1, J = 0..dim-2.  For the
    encoding problem the band is (J+1)/sqrt(4(J+1)^2 - 1), every entry in
    (1/2, 1/sqrt(3)] and decreasing toward 1/2.
    """

    off_diagonal: np.ndarray

    @property
    def dim(self) -> int:
        return self.off_diagonal.size + 1

    def dense(self) -> np.ndarray:
        return (np.diag(self.off_diagonal, 1) + np.diag(self.off_diagonal, -1))

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = np.zeros_like(v)
        out[:-1] += self.off_diagonal * v[1:]
        out[1:] += self.off_diagonal * v[:-1]
        return out


@dataclass(frozen=True)
class EncodingSpec:
    """Coefficients phi[J] of an encoding over the |J,0> basis, J = 0..N/2."""

    n_spins: int
    phi: np.ndarray

    def __post_init__(self):
        _require_even(self.n_spins)
        phi = np.asarray(self.phi, dtype=float)
        if phi.shape != (self.n_spins // 2 + 1,):
            raise ValueError(
                f"need N/2+1 = {self.n_spins // 2 + 1} coefficients, got {phi.shape}")
        if abs(float(phi @ phi) - 1.0) > 1e-12:
            raise ValueError("encoding coefficients must be normalized")
        object.__setattr__(self, "phi", phi)


def jacobi_matrix(n_spins: int) -> JacobiMatrix:
    """Tridiagonal matrix whose principal eigenvector is the optimal encoding.

    Dimension N/2+1; the entry linking rows J and J+1 is
    (J+1)/sqrt(4(J+1)^2 - 1).  Rejects odd or non-positive N.
    """
    _require_even(n_spins)
    j = np.arange(1, n_spins // 2 + 1, dtype=float)
    return JacobiMatrix(off_diagonal=j / np.sqrt(4.0 * j * j - 1.0))


# ---------------------------------------------------------------------------
# Tridiagonal eigensolver: Sturm-sequence bisection for the top eigenvalue,
# inverse iteration for its vector.
# ---------------------------------------------------------------------------

def _count_eigs_below(off_sq: np.ndarray, sigma: float) -> int:
    """Eigenvalues strictly below sigma, counted via the LDL^T pivot signs."""
    count = 0
    d = -sigma
    if d < 0.0:
        count += 1
    for bsq in off_sq:
        denom = d if d != 0.0 else -1e-300
        d = -sigma - bsq / denom
        if d < 0.0:
            count += 1
    return count


def _lambda_max_bisect(off: np.ndarray, tol: float = 1e-13) -> float:
    """Largest eigenvalue by bisection on [0, 1]; safe because the
    spectrum consists of Gauss-Legendre nodes, all inside (-1, 1), with
    the largest one positive for dim >= 2."""
    off_sq = off * off
    n = off.size + 1
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _count_eigs_below(off_sq, mid) == n:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _solve_shifted_tridiag(off: np.ndarray, shift: float,
                           rhs: np.ndarray) -> np.ndarray:
    """Solve (T - shift I) x = rhs for the zero-diagonal tridiagonal T.

    Gaussian elimination with partial pivoting; row swaps introduce fill-in
    no further than a second superdiagonal.  Near-singular shifts (the
    whole point of inverse iteration) are handled by a tiny-pivot floor.
    """
    n = rhs.size
    d = np.full(n, -shift)
    dl = off.astype(float).copy()
    du = off.astype(float).copy()
    du2 = np.zeros(max(n - 2, 0))  # fill-in from row swaps
    b = rhs.astype(float).copy()
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            if d[i] == 0.0:
                d[i] = 1e-30
            m = dl[i] / d[i]
            d[i + 1] -= m * du[i]
            b[i + 1] -= m * b[i]
        else:
            # swap rows i and i+1; row i's col-(i+2) entry is still zero here
            m = d[i] / dl[i]
            d[i] = dl[i]
            t_du = du[i]
            du[i] = d[i + 1]
            d[i + 1] = t_du - m * d[i + 1]
            if i < n - 2:
                du2[i] = du[i + 1]
                du[i + 1] = -m * du[i + 1]
            t_b = b[i]
            b[i] = b[i + 1]
            b[i + 1] = t_b - m * b[i]
    x = np.empty(n)
    if d[n - 1] == 0.0:
        d[n - 1] = 1e-30
    x[n - 1] = b[n - 1] / d[n - 1]
    if n >= 2:
        x[n - 2] = (b[n - 2] - du[n - 2] * x[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        x[i] = (b[i] - du[i] * x[i + 1] - du2[i] * x[i + 2]) / d[i]
    return x


def principal_eigenpair(matrix: JacobiMatrix, residual_tol: float = 1e-12,
                        max_iter: int = 50) -> tuple[float, np.ndarray]:
    """Top eigenvalue and its normalized, all-positive eigenvector.

    Bisection locates the eigenvalue to 1e-13; inverse iteration with that
    shift then converges in one or two solves.  The returned eigenvalue is
    the Rayleigh quotient of the converged vector.  Raises if the residual
    norm ||Mv - lambda v|| fails to reach ``residual_tol`` within
    ``max_iter`` iterations.
    """
    lam = _lambda_max_bisect(matrix.off_diagonal)
    n = matrix.dim
    v = np.full(n, 1.0 / math.sqrt(n))
    for _ in range(max_iter):
        w = _solve_shifted_tridiag(matrix.off_diagonal, lam, v)
        w = w / np.linalg.norm(w)
        if w.sum() < 0.0:
            w = -w
        mw = matrix.matvec(w)
        rayleigh = float(w @ mw)
        if np.linalg.norm(mw - rayleigh * w) <= residual_tol:
            return rayleigh, w
        v = w
    raise RuntimeError(
        f"inverse iteration did not reach residual {residual_tol} in {max_iter} steps")


def optimal_encoding(n_spins: int) -> EncodingSpec:
    """The entangled encoding maximizing the per-observer shrink factor."""
    _, vec = principal_eigenpair(jacobi_matrix(n_spins))
    return EncodingSpec(n_spins=n_spins, phi=vec)


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def parallel_tilde_delta(n_spins: int) -> float:
    """Per-observer shrink factor N/(N+2) of the parallel encoding."""
    if n_spins < 1:
        raise ValueError(f"need N >= 1, got {n_spins}")
    return n_spins / (n_spins + 2.0)


def optimal_tilde_delta(n_spins: int) -> float:
    """Per-observer shrink factor of the optimal encoding: the largest
    zero of the Legendre polynomial of degree N/2 + 1."""
    _require_even(n_spins)
    return legendre_largest_zero(n_spins // 2 + 1)


def fk_parallel(n_spins: int, k: int) -> float:
    """Mean fidelity of observer k for an all-parallel chain."""
    if k < 1:
        raise ValueError(f"observer index must be >= 1, got {k}")
    return 0.5 * (1.0 + parallel_tilde_delta(n_spins) ** k)


def fk_optimal(n_spins: int, k: int) -> float:
    """Mean fidelity of observer k for an all-optimal chain."""
    if k < 1:
        raise ValueError(f"observer index must be >= 1, got {k}")
    return 0.5 * (1.0 + optimal_tilde_delta(n_spins) ** k)


def delta_k_parallel_start(n_spins: int, k: int) -> float:
    """Shrink factor after k observers when the source emits parallel
    copies but every observer re-prepares the optimal encoding:
    N/(N+2) times the optimal factor to the power k-1."""
    if k < 1:
        raise ValueError(f"observer index must be >= 1, got {k}")
    return parallel_tilde_delta(n_spins) * optimal_tilde_delta(n_spins) ** (k - 1)


def fk_asymptotic(n_spins: int, k: int) -> float:
    """Large-N limit of the optimal fidelity, (1 + (1 - 2 xi0^2/N^2)^k)/2,
    with xi0 the first Bessel-J0 zero.  Requires 1 - 2 xi0^2/N^2 > 0
    (N >= 4 suffices)."""
    if k < 1:
        raise ValueError(f"observer index must be >= 1, got {k}")
    base = 1.0 - 2.0 * BESSEL_J0_FIRST_ZERO ** 2 / float(n_spins) ** 2
    if base <= 0.0:
        raise ValueError(f"asymptotic form needs 1 - 2 xi0^2/N^2 > 0; N = {n_spins} is too small")
    return 0.5 * (1.0 + base ** k)


def chain_delta(steps) -> float:
    """Product of per-step shrink factors; the empty chain gives 1."""
    return math.prod(steps, start=1.0)


# ---------------------------------------------------------------------------
# Outcome-tilt density of an encoding and trajectory simulation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OutcomeDensity:
    """Density of the tilt cosine between consecutive estimates.

    For an encoding with coefficients phi the measurement-outcome density
    is g(x) = (sum_J sqrt(2J+1) phi_J P_J(x))^2 / 2, stored as a Legendre
    series together with its exactly integrated CDF.  Sampling inverts a
    table of the survival function G(theta) = 1 - CDF(cos theta) on a
    uniform grid in the tilt angle theta = arccos x: for the optimal
    encoding g is concentrated within ~1/N^2 of x = 1, but in theta it
    is smooth on a scale of ~1/N, so the grid follows from N.  The table
    is built lazily on first use and immutable afterwards, so a density
    may be shared across threads.
    """

    encoding: EncodingSpec
    pdf_series: np.ndarray = field(repr=False)
    cdf_series: np.ndarray = field(repr=False)
    table_tol: float = 1e-4

    def pdf(self, x):
        return legendre_series(self.pdf_series, x)

    def cdf(self, x):
        return np.clip(legendre_series(self.cdf_series, x), 0.0, 1.0)

    def mean_tilt(self) -> float:
        """Exact mean of the tilt cosine, (2/3) times the P_1 coefficient."""
        if self.pdf_series.size < 2:
            return 0.0
        return 2.0 * float(self.pdf_series[1]) / 3.0

    def _survival(self, theta: np.ndarray) -> np.ndarray:
        return 1.0 - legendre_series(self.cdf_series, np.cos(theta))

    @cached_property
    def _inverse_table(self) -> tuple[np.ndarray, np.ndarray]:
        """(G, theta) knots, G increasing, refined by interval halving
        until the tabulated G is within table_tol of the exact one at
        every interval midpoint.

        The start grid resolves the N/2 oscillations of the amplitude
        with 16 intervals each; the floor of 1024 intervals keeps the
        sampler's mean bias below 1e-6 at small N, which table_tol alone
        would not.
        """
        intervals = max(1024, 16 * (self.encoding.n_spins // 2 + 2))
        theta = np.linspace(0.0, np.pi, intervals + 1)
        exact = self._survival(theta)
        exact[0], exact[-1] = 0.0, 1.0
        while True:
            mids = 0.5 * (theta[:-1] + theta[1:])
            exact_mids = self._survival(mids)
            knots = np.minimum(1.0, np.maximum.accumulate(exact))
            gap = np.abs(exact_mids - 0.5 * (knots[:-1] + knots[1:]))
            if float(gap.max()) <= self.table_tol:
                break
            if 2 * theta.size > 2 ** 21:
                raise RuntimeError("inverse-CDF table refinement did not converge")
            # the midpoints become knots of the halved grid
            theta = np.insert(theta, np.arange(1, theta.size), mids)
            exact = np.insert(exact, np.arange(1, exact.size), exact_mids)
        keep = np.empty(knots.size, dtype=bool)
        keep[0] = True
        keep[1:] = np.diff(knots) > 0.0
        return knots[keep], theta[keep]

    def sample(self, rng, size: int | None = None):
        gen = as_generator(rng)
        table_g, table_theta = self._inverse_table
        u = gen.random(size)
        # 1 - u is exact for u >= 1/2, so the tail near x = 1, where the
        # optimal density puts its mass, keeps full resolution
        x = np.cos(np.interp(1.0 - u, table_g, table_theta))
        return x if np.ndim(x) else float(x)


def outcome_density(encoding: EncodingSpec, table_tol: float = 1e-4) -> OutcomeDensity:
    """Build the tilt-cosine density of ``encoding``.

    The amplitude sum_J sqrt(2J+1) phi_J P_J is squared with a Legendre
    series product, so the CDF follows exactly from the antiderivative
    identity int P_L = (P_{L+1} - P_{L-1})/(2L+1).
    """
    phi = encoding.phi
    degrees = np.arange(phi.size, dtype=float)
    amplitude = np.sqrt(2.0 * degrees + 1.0) * phi
    g = 0.5 * npleg.legmul(amplitude, amplitude)

    cdf = np.zeros(g.size + 1)
    cdf[0] = g[0]           # int_{-1}^{x} P_0 = x + 1 = P_0 + P_1
    cdf[1] += g[0]
    for deg in range(1, g.size):
        cdf[deg + 1] += g[deg] / (2.0 * deg + 1.0)
        cdf[deg - 1] -= g[deg] / (2.0 * deg + 1.0)

    return OutcomeDensity(encoding=encoding, pdf_series=g, cdf_series=cdf,
                          table_tol=table_tol)


def sample_outcome_tilt(density: OutcomeDensity, rng, size: int | None = None):
    """Draw tilt cosines distributed as the encoding's outcome density."""
    return density.sample(rng, size)


def _validate_chain(n_spins: int, k: int, protocol: str):
    if protocol not in PROTOCOLS:
        raise ValueError(f"protocol must be one of {PROTOCOLS}, got {protocol!r}")
    if k < 1:
        raise ValueError(f"chain length must be >= 1, got {k}")
    if protocol == "parallel":
        if n_spins < 1:
            raise ValueError(f"need N >= 1, got {n_spins}")
    else:
        _require_even(n_spins)


def _chain_estimates_nspin(n_spins, k, protocol, rng, trials):
    _validate_chain(n_spins, k, protocol)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    gen = as_generator(rng)
    density = None
    if protocol != "parallel":
        density = outcome_density(optimal_encoding(n_spins))
    true_dirs = sample_uniform_sphere(gen, trials)
    current = true_dirs
    ests = np.empty((trials, k, 3))
    for j in range(k):
        if protocol == "parallel" or (protocol == "parallel_start" and j == 0):
            x = sample_cos_tilt(gen, n_spins, trials)
        else:
            x = density.sample(gen, trials)
        az = gen.uniform(0.0, 2.0 * np.pi, size=trials)
        current = rotate_towards(current, x, az)
        ests[:, j, :] = current
    return true_dirs, ests


def chain_dots_nspin(n_spins: int, k: int, protocol: str, rng,
                     trials: int) -> np.ndarray:
    """Vectorized N-spin observer chains; overlaps of shape (trials, k).

    ``protocol`` selects what every observer re-prepares and measures:
    "parallel" (all steps draw the N-copy tilt law, any N >= 1),
    "optimal" (all steps draw the optimal encoding's density, even N >= 2),
    or "parallel_start" (parallel first step, optimal afterwards).
    """
    true_dirs, ests = _chain_estimates_nspin(n_spins, k, protocol, rng, trials)
    return np.sum(ests * true_dirs[:, None, :], axis=-1)


def simulate_chain_nspin(n_spins: int, k: int, protocol: str, rng) -> ChainRecord:
    """One trajectory of the k-observer N-spin chain."""
    true_dirs, ests = _chain_estimates_nspin(n_spins, k, protocol, rng, trials=1)
    dots = np.sum(ests[0] * true_dirs[0], axis=-1)
    return ChainRecord(true_direction=true_dirs[0], estimates=ests[0], dots=dots)


def classical_threshold(k: int, target_fidelity: float, encoding: str) -> int:
    """Smallest ensemble size N whose k-th observer still reaches
    ``target_fidelity``.

    Uses the closed forms only; N is searched monotonically (any N >= 1
    for "parallel", even N >= 2 for "optimal").
    """
    if k < 1:
        raise ValueError(f"observer index must be >= 1, got {k}")
    if not 0.5 < target_fidelity < 1.0:
        raise ValueError("target fidelity must lie strictly between 1/2 and 1")
    if encoding not in ENCODINGS:
        raise ValueError(f"encoding must be one of {ENCODINGS}, got {encoding!r}")

    if encoding == "parallel":
        reaches = lambda n: fk_parallel(n, k) >= target_fidelity
        to_n = lambda idx: idx          # idx >= 1
    else:
        reaches = lambda n: fk_optimal(n, k) >= target_fidelity
        to_n = lambda idx: 2 * idx      # idx >= 1 -> even N

    hi = 1
    while not reaches(to_n(hi)):
        hi *= 2
        if hi > 2 ** 40:
            raise RuntimeError("threshold search exceeded safety bound")
    lo = hi // 2  # to_n(lo) fails (or lo == 0)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if reaches(to_n(mid)):
            hi = mid
        else:
            lo = mid
    return to_n(hi)
