"""The single-qubit observer chain.

A direction n encoded in one spin-1/2 is estimated in turn by k observers
who cannot communicate.  Each observer applies the uniform-prior-optimal
covariant POVM (or its Stern-Gerlach realization), guesses the outcome
direction, and passes on a re-prepared pure state.  For the Kraus family
parameterized below, the state observer k hands on has mean overlap
eta^k with n, eta = cos(phi)/3, as if a depolarizing channel shrank the
Bloch vector k times; observer k's guess has mean overlap
(1/3) eta^(k-1), one covariant measurement of the state handed to it.
The covariant chain runs as the scalar overlap recurrence of
:func:`spinrelay.encoding.chain_dots_nspin`; the Stern-Gerlach chain runs
in 3-D on its twin :func:`spinrelay.encoding.chain_dots_3d`, the covariant
one's oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .encoding import chain_dots_3d, chain_dots_nspin
from .sphere import sample_uniform_sphere

SCHEMES = ("covariant", "stern_gerlach")


@dataclass(frozen=True)
class QubitKrausFamily:
    """Measure-and-prepare realization of the covariant qubit POVM.

    The POVM element for outcome m is factored as A(m) = sqrt(2) |m_phi><m|
    where m_phi is m tilted by ``offset_angle``.  phi = 0 re-prepares the
    guess itself (minimal disturbance); phi = pi re-prepares the opposite
    direction (maximal disturbance).  The outcome statistics never depend
    on phi, only the state handed to the next observer does.  m_phi sits
    at a uniformly random azimuth on the tilt cone, drawn per outcome,
    which preserves average covariance.
    """

    offset_angle: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.offset_angle <= math.pi:
            raise ValueError("offset_angle must lie in [0, pi]")


def disturbance_constant(kraus: QubitKrausFamily) -> float:
    """Disturbance constant c = integral over outcomes of |tr A(m)|^2.

    For A(m) = sqrt(2)|m_phi><m| the trace is sqrt(2) <m|m_phi>, whose
    squared modulus is 2 cos^2(phi/2) = 1 + cos(phi) independently of m,
    so c = 1 + cos(phi): 2 at phi = 0 (dimension bound, least disturbance)
    down to 0 at phi = pi (traceless Kraus operators, worst disturbance).
    """
    return 1.0 + math.cos(kraus.offset_angle)


def eta_from_c(c: float) -> float:
    """Depolarizing shrink factor eta = (c - 1)/3 for c in [0, 2]."""
    if not 0.0 <= c <= 2.0:
        raise ValueError(f"disturbance constant must lie in [0, 2], got {c}")
    return (c - 1.0) / 3.0


def _sg_estimates(state_dirs: np.ndarray, gen) -> np.ndarray:
    """Stern-Gerlach observer: a uniformly random axis m, outcome +- with
    probability (1 +- m . state)/2, and the outcome direction as estimate.
    Marginally this reproduces the covariant observer."""
    n = state_dirs.shape[0]
    axes = sample_uniform_sphere(gen, n)
    p_plus = 0.5 * (1.0 + np.sum(axes * state_dirs, axis=-1))
    axes *= np.where(gen.random(n) < p_plus, 1.0, -1.0)[:, None]
    return axes


def chain_dots_single(k: int, kraus: QubitKrausFamily, scheme: str, rng,
                      trials: int, overlap: str = "estimate") -> np.ndarray:
    """Vectorized observer chains; returns overlaps of shape (trials, k),
    column-major, from the RandomStream ``rng``.

    With ``overlap="estimate"`` column j holds n . m_{j+1}: how well
    observer j+1's guess matches the true direction (the estimation
    fidelity contract).  With ``overlap="prepared"`` it holds n . s_{j+1},
    the overlap of the state handed onward, whose mean is the (j+1)-fold
    composition of the depolarizing channel, (cos(phi)/3)^(j+1).  The two
    coincide for offset angle 0, where prepared = estimate.
    """
    if not isinstance(kraus, QubitKrausFamily):
        raise TypeError("kraus must be a QubitKrausFamily")
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    if scheme == "covariant":
        return chain_dots_nspin(1, k, "single_qubit", rng, trials, kraus.offset_angle, overlap)
    return chain_dots_3d(1, k, "single_qubit", rng, trials, kraus.offset_angle, overlap,
                         _sg_estimates)
