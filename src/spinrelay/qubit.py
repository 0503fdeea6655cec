"""The single-qubit observer chain: the N = 1 case of every other chain.

A direction n encoded in one spin-1/2 is estimated in turn by k observers
who cannot communicate.  Each observer applies the uniform-prior-optimal
covariant POVM (or its Stern-Gerlach realization, :func:`stern_gerlach`),
guesses the outcome direction, and passes on a re-prepared pure state.

The re-preparation is a measure-and-prepare Kraus family: the POVM
element for outcome m is factored as A(m) = sqrt(2) |m_phi><m|, where
m_phi is m tilted by the offset angle phi in [0, pi], at a uniformly
random azimuth on the tilt cone, drawn per outcome, which preserves
average covariance.  phi = 0 re-prepares the guess itself (minimal
disturbance); phi = pi re-prepares the opposite direction (maximal
disturbance).  The outcome statistics never depend on phi, only the state
handed to the next observer does.  The state observer k hands on has mean
overlap eta^k with n, eta = cos(phi)/3, as if a depolarizing channel
shrank the Bloch vector k times; observer k's guess has mean overlap
(1/3) eta^(k-1), one covariant measurement of the state handed to it.

Both chains are the scalar overlap recurrence of :mod:`spinrelay.encoding`,
estimated by ``sweep.mc_estimate_delta("single_qubit", 1, k_values, phi,
trials, rng, overlap)``; the Stern-Gerlach chain is the same call with
``measure=stern_gerlach``, which draws every observer's tilt by the Born
rule in place of the inverse CDF.
"""

from __future__ import annotations

import math

import numpy as np


def disturbance_constant(phi: float) -> float:
    """Disturbance constant c = integral over outcomes of |tr A(m)|^2.

    For A(m) = sqrt(2)|m_phi><m| the trace is sqrt(2) <m|m_phi>, whose
    squared modulus is 2 cos^2(phi/2) = 1 + cos(phi) independently of m,
    so c = 1 + cos(phi): 2 at phi = 0 (dimension bound, least disturbance)
    down to 0 at phi = pi (traceless Kraus operators, worst disturbance).
    """
    if not 0.0 <= phi <= math.pi:
        raise ValueError(f"phi must lie in [0, pi], got {phi}")
    return 1.0 + math.cos(phi)


def eta_from_c(c: float) -> float:
    """Depolarizing shrink factor eta = (c - 1)/3 for c in [0, 2]."""
    if not 0.0 <= c <= 2.0:
        raise ValueError(f"disturbance constant must lie in [0, 2], got {c}")
    return (c - 1.0) / 3.0


def stern_gerlach(gen, size: int) -> np.ndarray:
    """Tilt cosines of ``size`` Stern-Gerlach estimates, by the Born rule: a
    uniformly random axis at overlap y = 2u - 1 with the state, for a
    ``gen.random`` draw u, and outcome + when the next draw is below
    (1 + y)/2, give the estimate's overlap x = +-y, of density (1 + x)/2:
    the N = 1 tilt law, so the covariant observer, from two fills."""
    y = 2.0 * gen.random(size) - 1.0
    return np.where(gen.random(size) < 0.5 * (1.0 + y), y, -y)
