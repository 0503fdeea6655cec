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

The closed forms of both, and the steps of every chain the CLI names,
are in :mod:`spinrelay.laws`.  :func:`_chain` sets a chain up as turns in
draw order, each observer's tilt and then any hand-on turn by its offset,
and chunks of trials; :func:`_run_chunk`, the one chain kernel, runs the
turns on a chunk as the scalar Markov chain of the overlap, and
:func:`_run_units` runs the chunks of chains, on one worker or several,
into one moment fold per chain.  A ``measure``, such as
:func:`spinrelay.qubit.stern_gerlach`, replaces every tilt sampler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
import math

import numpy as np

from .laws import _require_even, chain_laws
from .legendre import legendre_largest_zero
from .rng import RandomStream
from .sphere import sample_cos_tilt

#: cells of the tilt sampler's guide table; a power of two, so that q * M
#: and c / M are exact
_GUIDE_CELLS = 4096

#: cells of the azimuth cosine's table, which holds cos and sin at
#: 2 pi j / M for j = 0..M; a power of two, so that u * M is exact
_AZIMUTH_CELLS = 4096
_AZIMUTH_STEP = 2.0 * np.pi / _AZIMUTH_CELLS

#: trials per chunk of a chain, so that the six rows of a chain's
#: scratch hold this many values however many trials or observers run,
#: small enough to stay in a 2 MB L2 cache; chunk c draws from its own
#: stream, so this fixes which draws every trial past the first chunk gets
_CHAIN_ROWS = 2 ** 14

#: the inverse-CDF table is refined until its linear interpolation of the
#: survival function is this close to the exact one at every midpoint
_TABLE_TOL = 1e-4


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
    from numpy.polynomial import legendre as npleg
    _require_even(n_spins)
    half = n_spins // 2
    x = legendre_largest_zero(half + 1)
    phi = np.sqrt(2.0 * np.arange(half + 1) + 1.0) * npleg.legvander(x, half)[0]
    return EncodingSpec(n_spins=n_spins, phi=phi / np.linalg.norm(phi))


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
        from numpy.polynomial import legendre as npleg
        return 0.5 * npleg.legval(x, self.amplitude) ** 2

    def cdf(self, x):
        from numpy.polynomial import chebyshev as npcheb
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
        from numpy.polynomial import chebyshev as npcheb
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
            knots = np.maximum.accumulate(exact[::2])
            np.minimum(knots, 1.0, out=knots)
            gap = np.add(knots[:-1], knots[1:])
            np.subtract(exact[1::2], np.multiply(gap, 0.5, out=gap), out=gap)
            if float(np.abs(gap, out=gap).max()) <= _TABLE_TOL:
                break
            if 2 * (intervals + 1) > 2 ** 21:
                raise RuntimeError("inverse-CDF table refinement did not converge")
            intervals *= 2
        del exact, gap
        keep = np.concatenate(([True], knots[1:] > knots[:-1]))
        table_g, theta = knots[keep], np.linspace(0.0, np.pi, intervals + 1)[keep]
        slope = np.zeros(table_g.size)
        np.divide(np.diff(theta), np.diff(table_g), out=slope[:-1])
        edges = np.arange(_GUIDE_CELLS + 1) / _GUIDE_CELLS
        guide = np.searchsorted(table_g, edges, side="right") - 1
        guide[:-1][guide[:-1] != np.searchsorted(table_g, edges[1:]) - 1] = -1
        return table_g, theta, slope, guide

    def sample(self, gen, size: int, out=None, work=None) -> np.ndarray:
        """``size`` tilt cosines, drawn into and returned in ``out`` when
        given, with ``work`` the scratch of :meth:`_tilt_angle`."""
        q = gen.random(size, out=out)
        # q = 1 - u is exact for u >= 1/2, so the tail near x = 1, where
        # the optimal density puts its mass, keeps full resolution
        np.subtract(1.0, q, out=q)
        return np.cos(self._tilt_angle(q, work), out=q)

    def _tilt_angle(self, q: np.ndarray, work=None) -> np.ndarray:
        """theta at survival q (1-D, in [0, 1]), overwriting q: the value
        of np.interp(q, G, theta), bit for bit, from a guide-table lookup.
        ``work`` is three 64-bit rows of q's length, or None to allocate
        them; the last two hold int64 indices, whatever their dtype."""
        table_g, table_theta, slope, guide = self._inverse_table
        t, cell, j = work or np.empty((3, q.size))
        cell, j = cell.view(np.int64), j.view(np.int64)
        # each q's interval from its guide cell, or by binary search in a
        # split cell; q * M is exact, so the cell index is exact too.  Every
        # index is in range, and a "clip" take writes straight into out=
        np.multiply(q, _GUIDE_CELLS, out=t)
        np.copyto(cell, t, casting="unsafe")
        guide.take(cell, out=j, mode="clip")
        # cell is free until the table takes: a bool view of it holds the mask
        split = np.less(j, 0, out=cell.view(np.bool_)[:q.size])
        j[split] = np.searchsorted(table_g, q[split], side="right") - 1
        # np.interp's arithmetic, slope * (q - G[j]) + theta[j]
        q -= table_g.take(j, out=t, mode="clip")
        q *= slope.take(j, out=t, mode="clip")
        q += table_theta.take(j, out=t, mode="clip")
        return q


def outcome_density(encoding: EncodingSpec) -> OutcomeDensity:
    """The tilt-cosine density of ``encoding``, from its amplitude
    sum_J sqrt(2J+1) phi_J P_J."""
    degrees = np.arange(encoding.phi.size, dtype=float)
    return OutcomeDensity(encoding, np.sqrt(2.0 * degrees + 1.0) * encoding.phi)


def _chain(n_spins: int, k_values, mode: str, rng, trials: int, phi: float, overlap: str,
           measure=None):
    """The set-up of a chain, for :func:`_run_units` and the 3-D test oracle:
    check the overlap, ``k_values`` (non-empty, none below 1), the chain of
    length max(k) (:func:`chain_laws`), ``trials`` and the RandomStream ``rng``
    before any draw or density build; return ``(turns, chunks, columns)``.
    ``turns()`` lists the turns (x, slot) in draw order anew from the at most
    two runs of :func:`chain_laws`; ``chunks`` are the lazy (rows, Generator)
    of at most _CHAIN_ROWS rows each, chunk 0 drawing from ``rng`` and chunk
    c >= 1 from ``rng.child(c)``; ``columns`` counts the distinct k, whose
    order gives each its slot.  Each observer adds a tilt turn, whose x is a
    sampler ``(gen, size, out=None, work=None)``: ``measure(gen, size)``, or
    its law's, whose optimal density and table are built here, after the
    checks; then at a nonzero offset a hand-on turn with x = cos(offset).
    slot is that of the observer whose overlap the turn records, if its k is
    asked for, else None: the tilt turn's, or under "prepared" the last turn's."""
    if overlap not in ("estimate", "prepared"):
        raise ValueError("overlap must be 'estimate' or 'prepared'")
    if not k_values:
        raise ValueError("k_values must be non-empty")
    chain_laws(mode, n_spins, min(k_values), phi)  # a k below 1 names no observer
    laws = chain_laws(mode, n_spins, max(k_values), phi)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not isinstance(rng, RandomStream):
        raise TypeError(f"rng must be a RandomStream, got {type(rng).__name__}")
    samplers = {"parallel": lambda gen, size, out=None, work=None:
                sample_cos_tilt(gen, n_spins, size, out)}
    if not measure and any(law == "optimal" for law, _, _ in laws):
        density = outcome_density(optimal_encoding(n_spins))
        density._inverse_table  # the lazy table's one build, before any step buffer
        samplers["optimal"] = density.sample
    measured = measure and (lambda gen, size, out=None, work=None: measure(gen, size))
    prepared = overlap == "prepared"
    slots = {k - 1: slot for slot, k in enumerate(dict.fromkeys(k_values))}

    def turns():
        steps = ((law, offset) for law, offset, count in laws for _ in range(count))
        for j, (law, offset) in enumerate(steps):
            yield measured or samplers[law], None if offset and prepared else slots.get(j)
            if offset:
                yield math.cos(offset), slots.get(j) if prepared else None

    chunks = ((min(_CHAIN_ROWS, trials - lo), (rng.child(c) if c else rng).generator())
              for c, lo in enumerate(range(0, trials, _CHAIN_ROWS)))
    return turns, chunks, len(slots)


def _azimuth_table() -> tuple[np.ndarray, np.ndarray]:
    """cos and sin at 2 pi j / M, j = 0..M, from the first quadrant by
    symmetry: there j * step rounds by at most 1.1e-16, against 4.4e-16
    near 2 pi, so every entry is within 2e-16 of exact."""
    n = _AZIMUTH_CELLS // 4
    angle = np.arange(n + 1) * _AZIMUTH_STEP
    c, s = np.cos(angle), np.sin(angle)
    return (np.concatenate([c[:n], -s[:n], -c[:n], s]),
            np.concatenate([s[:n], c[:n], -s[:n], -c]))


_AZIMUTH_COS, _AZIMUTH_SIN = _azimuth_table()


def _cos_2pi(u: np.ndarray, work=None) -> np.ndarray:
    """cos(2 pi u) for u in [0, 1] (1-D), overwriting u, with no libm call.

    The table gives cos a and sin a at the nearest a = 2 pi j / M, and
    h = 2 pi u - a, |h| <= pi / M, turns them by the angle-addition formula
    with two Taylor terms each for cos h and sin h:
    cos(a + h) = cos a - [cos a (h^2/2 - h^4/24) + sin a (h - h^3/6)].
    The remainders are below 3e-18, so the error is the rounding of the
    table and of the last subtraction.  At u = j / M it is the table entry.
    ``work`` is (j, cos_a, r), float rows of u's length, or None to allocate
    them; r holds the int64 index, then h^2, j then sin a; the result is in cos_a.
    """
    j, cos_a, r = work or np.empty((3, u.size))
    idx = r.view(np.int64)
    u *= _AZIMUTH_CELLS
    np.rint(u, out=j)
    u -= j  # exact, as u * M was
    u *= _AZIMUTH_STEP
    np.copyto(idx, j, casting="unsafe")
    _AZIMUTH_COS.take(idx, out=cos_a, mode="clip")
    sin_a = _AZIMUTH_SIN.take(idx, out=j, mode="clip")
    h2 = np.multiply(u, u, out=r)
    sin_a *= u
    np.multiply(h2, -1.0 / 6.0, out=u)
    u += 1.0
    sin_a *= u
    np.multiply(h2, -1.0 / 24.0, out=u)
    u += 0.5
    u *= h2
    u *= cos_a
    u += sin_a
    return np.subtract(cos_a, u, out=cos_a)


def _one_minus_square(v, out: np.ndarray):
    """1 - v^2: a float for a float v, else written into ``out``."""
    if isinstance(v, float):
        return 1.0 - v * v
    np.multiply(v, v, out=out)
    return np.subtract(1.0, out, out=out)


def _turn(c, x, gen, out: np.ndarray, work) -> np.ndarray:
    """c x + sqrt((1 - c^2)(1 - x^2)) cos psi into ``out``, with psi = 2 pi u
    for a ``gen.random`` draw u: the overlap of a direction at overlap c,
    tilted by x, a number or a sampler of :func:`_chain` drawn before u, at
    a uniform azimuth.  cos psi comes from the table of :func:`_cos_2pi`,
    and u is the fill that the 3-D oracle chain's tilt step turns into
    2 pi u.  A sampled x is drawn into ``out``, which must not hold c, and
    c x overwrites it there; ``work``, four float rows of out's length,
    holds u and every temporary, so a turn allocates nothing."""
    u, h, cos_a, r = work
    rows = out.shape[0]
    x = x(gen, rows, out, (u, h, r)) if callable(x) else x
    cos_psi = _cos_2pi(gen.random(rows, out=u), (h, cos_a, r))
    # u and h are free again, for (1 - c^2)(1 - x^2)
    s = np.multiply(_one_minus_square(c, u), _one_minus_square(x, h), out=u)
    np.sqrt(np.maximum(s, 0.0, out=s), out=s)
    s *= cos_psi
    np.multiply(c, x, out=out)
    out += s
    return out


def _run_chunk(turns, rows: int, gen, scratch: np.ndarray, consume) -> None:
    """One chunk of ``rows`` trials of a chain of :func:`_chain`, from its
    Generator ``gen``, on a (6, >= rows) ``scratch``: each turn takes c from 1
    to c x + sqrt((1 - c^2)(1 - x^2)) cos psi (:func:`_turn`) in whichever of
    the first two rows does not hold c, and ``consume(slot, c)`` may use the
    last row.  It skips the 3-D oracle's 2 * rows words of true directions."""
    a, b, *work = scratch[:, :rows]
    gen.bit_generator.advance(rows // 2)  # 4 words a counter step
    gen.bit_generator.random_raw(2 * (rows % 2))
    c = 1.0
    for x, slot in turns():
        c = _turn(c, x, gen, b if c is a else a, work)
        if slot is not None:
            consume(slot, c)


def _run_units(set_ups: list, trials: int, workers: int = 1) -> list:
    """One :class:`~spinrelay.records.MomentFold` per chain of ``trials``
    trials, run chunk by chunk on the calling thread and plain threads,
    ``workers`` in all, at most one per chunk.  ``set_ups[i]()`` gives chain i
    as :func:`_chain` does, ``(turns, chunks, columns)``, when a worker asks for
    a chunk and chain i - 1 has none left, under the lock that hands chunks out
    (chain 0 on the calling thread, before any other starts).  Each chunk folds
    apart, with its squares in its worker's scratch, and the chain merges the
    folds in chunk order.  The earliest chain's failure is raised; no chain is
    set up after one."""
    import threading
    from .records import MomentFold
    lock, failures, parts = threading.Lock(), {}, {}
    folds, merged = [None] * len(set_ups), [0] * len(set_ups)
    rows, chunks = min(trials, _CHAIN_ROWS), -(-trials // _CHAIN_ROWS)
    workers = min(workers, len(set_ups) * chunks)

    def hand_out():  # each next() runs under the lock
        for i, set_up in enumerate(set_ups):
            try:
                turns, chain_chunks, columns = set_up()
            except BaseException as exc:  # raised again by the calling thread
                failures.setdefault(i, exc)
                return
            folds[i] = MomentFold(columns)
            for index, (size, gen) in enumerate(chain_chunks):
                yield i, index, turns, columns, size, gen
            del turns, chain_chunks  # the chain's density, before the next set-up builds its own

    def run(scratch, i, index, turns, columns, size, gen):  # returns the next chunk's scratch
        try:
            scratch = np.empty((6, rows)) if scratch is None else scratch
            part = MomentFold(columns, scratch[-1])
            _run_chunk(turns, size, gen, scratch, part)
            with lock:
                parts[i, index] = part
                while (i, merged[i]) in parts:
                    folds[i].merge(parts.pop((i, merged[i])))
                    merged[i] += 1
        except BaseException as exc:
            with lock:
                failures.setdefault(i, exc)
        # alone, a worker spares the next set-up's peak its scratch
        return None if workers == 1 and index == chunks - 1 else scratch

    def work():
        scratch = None
        while True:
            with lock:
                task = first.pop() if first else None if failures else next(tasks, None)
            if task is None:
                return
            scratch = run(scratch, *task)
            del task  # nor may this worker hold the turns into the next set-up

    # the calling thread sets the first chain up before any thread starts, so
    # what that leaves for the whole run (numpy.polynomial, numpy's caches) is
    # in its heap, not a thread's: 0.15 MB of optimal_grid's peak RSS
    tasks = hand_out()
    first = [next(tasks, None)]  # popped, so that no list keeps chain 0's turns
    threads = [threading.Thread(target=work) for _ in range(workers - 1)]
    for thread in threads:
        thread.start()
    work()
    for thread in threads:
        thread.join()
    if failures:
        raise failures[min(failures)]
    return folds
