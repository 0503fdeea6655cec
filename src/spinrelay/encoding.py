"""Encodings of a direction into N spin-1/2 systems and their observer chains.

Two families are covered:

* the parallel encoding (N identical copies), whose per-observer shrink
  factor is N/(N+2);
* the optimal entangled encoding, a superposition over the zero-projection
  states |J,0> of the total-spin blocks, J = 0..N/2 (N even), whose
  coefficient vector is the principal eigenvector of the truncated
  Legendre Jacobi matrix, the symmetric tridiagonal matrix with band
  (J+1)/sqrt(4(J+1)^2 - 1).  Its eigenvalues are the zeros of the
  degree-(N/2+1) Legendre polynomial, so the per-observer shrink factor
  is the largest zero x, and the eigenvector is known in closed form,
  phi_J proportional to sqrt(2J+1) P_J(x) (Golub-Welsch).

Per-observer shrink factors multiply along a chain.  :func:`chain_laws`
lists the steps of every chain the CLI names, as runs of equal steps;
:func:`analytic_delta` multiplies their factors, and
:func:`chain_observers` turns the same steps into the 3-D observers of
:func:`spinrelay.sphere.observer_chain`, the oracle of :func:`chain_dots_nspin`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
import math

import numpy as np
from numpy.polynomial import chebyshev as npcheb
from numpy.polynomial import legendre as npleg

from .legendre import BESSEL_J0_FIRST_ZERO, legendre_largest_zero
from .rng import as_generator
from .sphere import chain_blocks, sample_cos_tilt, tilt_step

#: the observer chains; a sweep cell's random substream follows this order
MODES = ("single_qubit", "nspin_parallel", "nspin_optimal", "parallel_start")

#: cells of the tilt sampler's guide table; a power of two, so that q * M
#: and c / M are exact
_GUIDE_CELLS = 4096

#: the inverse-CDF table is refined until its linear interpolation of the
#: survival function is this close to the exact one at every midpoint
_TABLE_TOL = 1e-4


def _require_even(n_spins: int):
    if n_spins < 2 or n_spins % 2 != 0:
        raise ValueError(
            f"the entangled encoding is defined for even N >= 2, got N = {n_spins}")


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


def jacobi_matrix(n_spins: int) -> np.ndarray:
    """Dense symmetric matrix whose principal eigenvector is the optimal encoding.

    Dimension N/2+1 with zero diagonal; the entry linking rows J and J+1
    is (J+1)/sqrt(4(J+1)^2 - 1).  :func:`optimal_encoding` does not use
    it; its dense eigenpairs (``np.linalg.eigh``) are the independent
    oracle for the closed form.  Rejects odd or non-positive N.
    """
    _require_even(n_spins)
    j = np.arange(1, n_spins // 2 + 1, dtype=float)
    band = j / np.sqrt(4.0 * j * j - 1.0)
    return np.diag(band, 1) + np.diag(band, -1)


def optimal_encoding(n_spins: int) -> EncodingSpec:
    """The entangled encoding maximizing the per-observer shrink factor.

    Built in closed form: with x the largest zero of P_{N/2+1}, the
    principal eigenvector of :func:`jacobi_matrix` has components
    proportional to sqrt(2J+1) P_J(x) (Golub & Welsch, Math. Comp. 23,
    1969), all positive because x lies above every zero of P_J, J <= N/2.
    """
    _require_even(n_spins)
    half = n_spins // 2
    x = legendre_largest_zero(half + 1)
    phi = np.sqrt(2.0 * np.arange(half + 1) + 1.0) * npleg.legvander(x, half)[0]
    return EncodingSpec(n_spins=n_spins, phi=phi / np.linalg.norm(phi))


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def fidelity_from_delta(delta: float) -> float:
    """Mean fidelity (1 + delta)/2 from a mean overlap delta in [-1, 1]."""
    if abs(delta) > 1.0:
        raise ValueError(f"delta must lie in [-1, 1], got {delta}")
    return 0.5 * (1.0 + delta)


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


# ---------------------------------------------------------------------------
# Outcome-tilt density of an encoding and trajectory simulation
# ---------------------------------------------------------------------------

def _amplitude_at_angles(amplitude: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """sum_J amplitude[J] P_J(cos theta).

    npleg.legval would need x = cos theta, which rounds by up to an ulp
    near x = 1, where a degree-n series changes ~n^2 times faster than x;
    that moved the density's total mass by 3e-13 at N = 272 and 1e-10 at
    N = 10^4.  Here the Legendre recurrence runs on s = 1 - x = 2
    sin^2(theta / 2), accurate to rounding near x = 1, through the
    differences d_J = P_J - P_{J-1}: (J+1) d_{J+1} = J d_J - (2J+1) s P_J.
    """
    s = 2.0 * np.sin(0.5 * theta) ** 2
    p, d = np.ones_like(s), -s
    total = amplitude[0] * p
    for j in range(1, amplitude.size):
        p += d
        total += amplitude[j] * p
        d *= j / (j + 1)
        d -= ((2 * j + 1) / (j + 1)) * s * p
    return total


@dataclass(frozen=True)
class OutcomeDensity:
    """Density of the tilt cosine between consecutive estimates.

    For an encoding with coefficients phi the measurement-outcome density
    is g(x) = a(x)^2 / 2, with the amplitude a = sum_J sqrt(2J+1) phi_J P_J
    stored as its Legendre series.  The survival function G = 1 - CDF is
    a Chebyshev series in x, so a cosine series in the tilt angle theta =
    arccos x; :attr:`_survival` builds it exactly, up to rounding.
    Sampling inverts a table of G on a uniform grid in theta: for the
    optimal encoding g is concentrated within ~1/N^2 of x = 1, but in
    theta it is smooth on a scale of ~1/N, so the grid follows from N.  A
    draw u finds its table interval through a guide table over G, in O(1)
    for most draws; the result is bit-identical to np.interp on the same
    table.  The series and the table are built lazily on first use and
    immutable afterwards, so a density may be shared across threads.
    """

    encoding: EncodingSpec
    amplitude: np.ndarray = field(repr=False)

    def pdf(self, x):
        return 0.5 * npleg.legval(x, self.amplitude) ** 2

    def cdf(self, x):
        return np.clip(1.0 - npcheb.chebval(x, self._survival), 0.0, 1.0)

    def mean_tilt(self) -> float:
        """Exact mean of the tilt cosine, 1 - int CDF = int G - 1 over
        [-1, 1], with int T_m = 2 / (1 - m^2) for even m and 0 for odd m."""
        m = np.arange(0.0, self._survival.size, 2.0)
        return float(self._survival[::2] @ (2.0 / (1.0 - m * m))) - 1.0

    @cached_property
    def _survival(self) -> np.ndarray:
        """Chebyshev coefficients b of G, so G(cos theta) = sum_m b[m] cos(m theta).

        g has degree N, so its values at the K + 1 Chebyshev-Lobatto
        points cos(j pi / K), K = N + 2, fix it; a DCT-I through a real
        FFT of the even extension gives its Chebyshev coefficients, and
        chebint the CDF's.
        """
        k = 2 * self.amplitude.size
        theta = np.arange(k + 1) * (np.pi / k)
        values = 0.5 * _amplitude_at_angles(self.amplitude, theta) ** 2
        g = np.fft.rfft(np.concatenate([values, values[-2:0:-1]])).real / k
        g[[0, -1]] /= 2.0
        b = -npcheb.chebint(g, lbnd=-1)
        b[0] += 1.0
        return b

    @cached_property
    def _inverse_table(self):
        """(G, theta, slope, guide): the knots, G increasing, the
        sampler's per-interval slopes and its guide table.

        The knots are refined by interval halving until the tabulated G
        is within _TABLE_TOL of the exact one at every interval midpoint.
        The start grid resolves the N/2 oscillations of the amplitude
        with L = 16 intervals each; the floor of L = 1024 keeps the
        sampler's mean bias below 1e-6 at small N, which _TABLE_TOL alone
        would not.  The knots i pi / m and the midpoints (i + 1/2) pi / m
        of an m-interval grid are the points of the 2m-interval grid, so
        each round reads G at all of them from one inverse real FFT of
        the cosine series, of length 4m.

        slope holds np.interp's slopes diff(theta) / diff(G), and a 0
        after the last knot.  guide[c] is the interval j, G[j] <= q <
        G[j+1], of every q in the cell [c/M, (c+1)/M) of M = 4096 equal
        cells (Chen & Asau 1974; Devroye 1986, sec. III.2.4), or -1
        where a knot splits the cell; its last entry is q = 1's interval.
        """
        intervals = max(1024, 16 * (self.encoding.n_spins // 2 + 2))
        # irfft halves every term but the constant one and divides by its length
        spectrum = 2.0 * self._survival
        spectrum[0] *= 2.0
        while True:
            exact = np.fft.irfft(intervals * spectrum, 4 * intervals)[:2 * intervals + 1]
            exact[0], exact[-1] = 0.0, 1.0
            knots = np.minimum(1.0, np.maximum.accumulate(exact[::2]))
            gap = np.abs(exact[1::2] - 0.5 * (knots[:-1] + knots[1:]))
            if float(gap.max()) <= _TABLE_TOL:
                break
            if 2 * (intervals + 1) > 2 ** 21:
                raise RuntimeError("inverse-CDF table refinement did not converge")
            intervals *= 2
        keep = np.empty(knots.size, dtype=bool)
        keep[0] = True
        keep[1:] = np.diff(knots) > 0.0
        table_g, theta = knots[keep], np.linspace(0.0, np.pi, intervals + 1)[keep]
        slope = np.append(np.diff(theta) / np.diff(table_g), 0.0)
        edges = np.arange(_GUIDE_CELLS + 1) / _GUIDE_CELLS
        guide = np.searchsorted(table_g, edges, side="right") - 1
        guide[:-1][guide[:-1] != np.searchsorted(table_g, edges[1:]) - 1] = -1
        return table_g, theta, slope, guide

    def sample(self, rng, size: int | None = None):
        x = np.asarray(as_generator(rng).random(size))
        q = x.reshape(-1)
        # q = 1 - u is exact for u >= 1/2, so the tail near x = 1, where
        # the optimal density puts its mass, keeps full resolution
        np.subtract(1.0, q, out=q)
        np.cos(self._tilt_angle(q), out=q)
        return x if x.ndim else float(x)

    def _tilt_angle(self, q: np.ndarray) -> np.ndarray:
        """theta at survival q (1-D, in [0, 1]), overwriting q: the value
        of np.interp(q, G, theta), bit for bit, from a guide-table lookup."""
        table_g, table_theta, slope, guide = self._inverse_table
        # each q's interval from its guide cell, or by binary search in a
        # split cell; q * M is exact, so the cell index is exact too
        t = q * _GUIDE_CELLS
        j = guide[t.astype(np.intp)]
        split = np.flatnonzero(j < 0)
        j[split] = np.searchsorted(table_g, q[split], side="right") - 1
        # np.interp's arithmetic, slope * (q - G[j]) + theta[j]
        q -= table_g.take(j, out=t)
        q *= slope.take(j, out=t)
        q += table_theta.take(j, out=t)
        return q


def outcome_density(encoding: EncodingSpec) -> OutcomeDensity:
    """The tilt-cosine density of ``encoding``, from its amplitude
    sum_J sqrt(2J+1) phi_J P_J."""
    degrees = np.arange(encoding.phi.size, dtype=float)
    return OutcomeDensity(encoding, np.sqrt(2.0 * degrees + 1.0) * encoding.phi)


def chain_laws(mode: str, n_spins: int, k: int,
               phi: float = 0.0) -> list[tuple[str, float, int]]:
    """The k observers of ``mode``'s chain as runs (tilt law, hand-on
    offset, count) of equal steps, at most two per chain.

    Each observer draws its estimate's tilt from the "parallel" law (N
    copies) or the "optimal" law (the optimal encoding's outcome density)
    and hands on its estimate turned by the offset angle.  single_qubit is
    the N = 1 parallel law with offset phi in [0, pi]; nspin_parallel the
    parallel law at any N >= 1; nspin_optimal the optimal law, and
    parallel_start one parallel step then optimal ones, at even N >= 2.
    phi is ignored outside single_qubit.  Raises ValueError for an unknown
    mode or a k, N or phi the mode does not allow.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if k < 1:
        raise ValueError(f"chain length must be >= 1, got {k}")
    if mode == "single_qubit":
        if n_spins != 1:
            raise ValueError(f"single_qubit mode runs at N = 1 only, got N = {n_spins}")
        if not 0.0 <= phi <= math.pi:
            raise ValueError(f"phi must lie in [0, pi], got {phi}")
        return [("parallel", phi, k)]
    if mode == "nspin_parallel":
        if n_spins < 1:
            raise ValueError(f"parallel mode needs N >= 1, got N = {n_spins}")
        return [("parallel", 0.0, k)]
    _require_even(n_spins)
    if mode == "nspin_optimal":
        return [("optimal", 0.0, k)]
    return [("parallel", 0.0, 1)] + ([("optimal", 0.0, k - 1)] if k > 1 else [])


_LAW_MEANS = {"parallel": parallel_tilde_delta, "optimal": optimal_tilde_delta}


def analytic_delta(mode: str, n_spins: int, k: int, phi: float = 0.0) -> float:
    """Closed-form mean overlap with the truth of the state observer k hands on.

    The product over :func:`chain_laws` of each step's law mean, its
    per-observer shrink factor, times the cosine of its offset.  Each run
    is raised to its count, so any chain length costs at most two powers
    and no density is built.
    """
    return math.prod((_LAW_MEANS[law](n_spins) * math.cos(offset)) ** count
                     for law, offset, count in chain_laws(mode, n_spins, k, phi))


def _tilt_samplers(n_spins: int) -> dict:
    """Each tilt law's ``(gen, size)`` sampler; the density is built on first use."""
    density = cache(lambda: outcome_density(optimal_encoding(n_spins)))
    return {"parallel": lambda gen, size: sample_cos_tilt(gen, n_spins, size),
            "optimal": lambda gen, size: density().sample(gen, size)}


def chain_observers(mode: str, n_spins: int, k: int, phi: float = 0.0,
                    measure=None, overlap: str = "estimate") -> list:
    """The k observers of :func:`chain_laws`' chain, as the
    ``(state, gen) -> (tracked, handed_on)`` steps of
    :func:`spinrelay.sphere.observer_chain`.

    Each observer estimates the direction by tilting the state by a draw
    from its step's law, or by ``measure(state, gen)`` when given, and
    hands on that estimate turned by its offset angle at a uniform
    azimuth; a zero offset hands on the estimate itself and draws
    nothing.  It tracks the estimate, or with ``overlap="prepared"`` the
    state it hands on.
    """
    samplers = _tilt_samplers(n_spins)

    def observer(sample_tilt, offset):
        def observe(state, gen):
            if measure is None:
                est = tilt_step(state, sample_tilt(gen, state.shape[0]), gen)
            else:
                est = measure(state, gen)
            handed_on = est if offset == 0.0 else tilt_step(est, math.cos(offset), gen)
            return (handed_on if overlap == "prepared" else est), handed_on
        return observe

    observers = []
    for law, offset, count in chain_laws(mode, n_spins, k, phi):
        observers += [observer(samplers[law], offset)] * count
    return observers


def chain_dots_nspin(n_spins: int, k: int, mode: str, rng,
                     trials: int) -> np.ndarray:
    """Vectorized N-spin observer chains from the RandomStream ``rng``;
    overlaps of shape (trials, k), column-major, of each observer's
    estimate with the true direction.

    The chains of :func:`chain_observers` are covariant, so the overlap
    alone is a Markov chain: a step that tilts by x at azimuth psi takes c
    to c x + sqrt((1 - c^2)(1 - x^2)) cos psi, from c = 1, so column 1 is
    x.  Each block of :func:`spinrelay.sphere.chain_blocks` draws the 3-D
    chain's fills: two for the true directions, unused here but kept so
    that every k = 1 overlap is the 3-D chain's up to rounding, then per
    observer its tilt x and its azimuth psi on [0, 2 pi)."""
    samplers, laws = _tilt_samplers(n_spins), chain_laws(mode, n_spins, k)
    dots, blocks = chain_blocks(rng, trials, k)
    for block, gen in blocks:
        rows = block.shape[0]
        # the true directions' two fills: unused, but kept for the k = 1 records
        gen.random(rows), gen.random(rows)
        c = 1.0
        for j, law in enumerate(name for name, _, count in laws for _ in range(count)):
            x = samplers[law](gen, rows)
            cos_psi = np.cos(gen.uniform(0.0, 2.0 * np.pi, rows))
            s = (1.0 - c * c) * (1.0 - x * x)
            c = np.multiply(c, x, out=block[:, j])
            c += np.sqrt(np.maximum(s, 0.0, out=s), out=s) * cos_psi
    return dots


def classical_threshold(k: int, target_fidelity: float, mode: str) -> int:
    """Smallest ensemble size N whose k-th observer in ``mode``'s chain
    still reaches ``target_fidelity``.

    Uses :func:`analytic_delta` only; N is searched monotonically (any
    N >= 1 for "nspin_parallel", even N >= 2 for the optimal modes).
    """
    if not 0.5 < target_fidelity < 1.0:
        raise ValueError("target fidelity must lie strictly between 1/2 and 1")
    step = 1 if mode == "nspin_parallel" else 2

    def reaches(idx):
        delta = analytic_delta(mode, step * idx, k)
        return fidelity_from_delta(delta) >= target_fidelity

    hi = 1
    while not reaches(hi):
        hi *= 2
        if hi > 2 ** 40:
            raise RuntimeError("threshold search exceeded safety bound")
    lo = hi // 2  # step * lo fails (or lo == 0)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if reaches(mid):
            hi = mid
        else:
            lo = mid
    return step * hi
