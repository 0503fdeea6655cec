"""spinrelay: how much direction information survives a chain of observers.

A direction encoded in N spin-1/2 systems is estimated by k successive
non-communicating observers, each measuring the state left behind by the
previous one.  This package provides the closed-form fidelity laws, the
optimal entangled encoding, and seeded Monte Carlo trajectory simulation
that cross-checks every closed form.
"""

from .encoding import (
    EncodingSpec,
    OutcomeDensity,
    analytic_delta,
    chain_dots_nspin,
    chain_laws,
    classical_threshold,
    fidelity_from_delta,
    fk_asymptotic,
    optimal_encoding,
    optimal_tilde_delta,
    outcome_density,
    parallel_tilde_delta,
)
from .legendre import BESSEL_J0_FIRST_ZERO, legendre_largest_zero
from .qubit import disturbance_constant, eta_from_c, stern_gerlach
from .records import McEstimate
from .rng import RandomStream
from .sweep import SweepConfig, emit_encoding, mc_estimate_delta, run_sweep

__version__ = "0.1.0"
