"""Closed forms of the observer chains, in plain floating point.

Each observer of a chain draws its estimate's tilt from the "parallel"
law of N identical copies, whose per-observer shrink factor is N/(N+2),
or the "optimal" law of the optimal entangled encoding, whose shrink
factor is the largest zero of the Legendre polynomial of degree N/2 + 1
(:mod:`spinrelay.encoding` builds that encoding and its density).
Shrink factors multiply along a chain: :func:`chain_laws` lists the steps
of every chain the CLI names, as runs of equal steps, and
:func:`analytic_delta` multiplies their factors.  Nothing here needs
numpy, so the CLI's ``analytic`` starts without it.
"""

from __future__ import annotations

import math

from .legendre import BESSEL_J0_FIRST_ZERO, legendre_largest_zero

#: the observer chains; a sweep cell's random substream follows this order
MODES = ("single_qubit", "nspin_parallel", "nspin_optimal", "parallel_start")


def _require_even(n_spins: int):
    if n_spins < 2 or n_spins % 2 != 0:
        raise ValueError(
            f"the entangled encoding is defined for even N >= 2, got N = {n_spins}")


def fidelity_from_delta(delta: float) -> float:
    """Mean fidelity (1 + delta)/2 from a mean overlap delta in [-1, 1]."""
    if not abs(delta) <= 1.0:  # also rejects nan
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
    with xi0 the first Bessel-J0 zero.  Requires N >= 1 and
    1 - 2 xi0^2/N^2 > 0 (N >= 4 suffices)."""
    if n_spins < 1:
        raise ValueError(f"need N >= 1, got {n_spins}")
    if k < 1:
        raise ValueError(f"observer index must be >= 1, got {k}")
    base = 1.0 - 2.0 * BESSEL_J0_FIRST_ZERO ** 2 / float(n_spins) ** 2
    if base <= 0.0:
        raise ValueError(f"asymptotic form needs 1 - 2 xi0^2/N^2 > 0; N = {n_spins} is too small")
    return 0.5 * (1.0 + base ** k)


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
    """Closed-form mean overlap of observer k's estimate with the truth.

    The product over :func:`chain_laws` of each step's law mean, its
    per-observer shrink factor, times the cosine of each of the k - 1
    offsets handed on before observer k measures.  Each run is raised to
    its count, so any chain length costs at most four powers and no
    density is built.
    """
    laws = chain_laws(mode, n_spins, k, phi)
    turns = [count for _, _, count in laws]
    turns[-1] -= 1  # observer k's own estimate is not turned by its offset
    return math.prod(_LAW_MEANS[law](n_spins) ** count * math.cos(offset) ** turned
                     for (law, offset, count), turned in zip(laws, turns))


def classical_threshold(k: int, target_fidelity: float, mode: str) -> int:
    """Smallest ensemble size N whose k-th observer in ``mode``'s chain
    still reaches ``target_fidelity``.

    Uses :func:`analytic_delta` only; N is searched monotonically (any
    N >= 1 for "nspin_parallel", even N >= 2 for the optimal modes).  A
    single qubit has no ensemble size to search, so "single_qubit" raises.
    """
    if not 0.5 < target_fidelity < 1.0:
        raise ValueError("target fidelity must lie strictly between 1/2 and 1")
    if mode == "single_qubit":
        raise ValueError("single_qubit mode has no ensemble size N to search")
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
