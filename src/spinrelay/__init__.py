"""spinrelay: how much direction information survives a chain of observers.

A direction encoded in N spin-1/2 systems is estimated by k successive
non-communicating observers, each measuring the state left behind by the
previous one.  This package provides the closed-form fidelity laws, the
optimal entangled encoding, and seeded Monte Carlo trajectory simulation
that cross-checks every closed form.

Each public name is imported from its module on first use (PEP 562), so
that the closed forms of :mod:`spinrelay.laws` load without numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

#: public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(("optimal_encoding", "outcome_density"), "encoding"),
    **dict.fromkeys(("analytic_delta", "classical_threshold", "fidelity_from_delta",
                     "fk_asymptotic", "optimal_tilde_delta", "parallel_tilde_delta"), "laws"),
    **dict.fromkeys(("BESSEL_J0_FIRST_ZERO", "legendre_largest_zero"), "legendre"),
    **dict.fromkeys(("disturbance_constant", "eta_from_c", "stern_gerlach"), "qubit"),
    "RandomStream": "rng",
    **dict.fromkeys(("SweepConfig", "emit_encoding", "mc_estimate_delta", "run_sweep"),
                    "sweep"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value
