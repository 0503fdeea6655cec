#!/usr/bin/env python3
"""When does quantum information start behaving classically?

Classical information can be read by arbitrarily many careful observers.
Quantum encodings degrade -- but the larger the ensemble, the slower the
decay.  If the ensemble grows as N ~ k^alpha with the number of observers
k, the k-th observer keeps a fixed fidelity once alpha > 1 for parallel
copies, and already once alpha > 1/2 for the optimal entangled encoding.

The script computes the smallest N that keeps observer k above a target
fidelity, shows the ~k versus ~sqrt(k) growth, and checks the Bessel-zero
asymptote of the optimal shrink factor that drives the square-root law.
"""

from spinrelay import (
    BESSEL_J0_FIRST_ZERO,
    analytic_delta,
    classical_threshold,
    fidelity_from_delta,
    fk_asymptotic,
    legendre_largest_zero,
)

TARGET = 0.9

print(f"smallest N keeping observer k at fidelity >= {TARGET}\n")
print(f"{'k':>5} {'parallel N':>11} {'optimal N':>10} {'N_par/N_opt':>12}")
for k in (4, 16, 64, 256, 1024):
    n_par = classical_threshold(k, TARGET, "nspin_parallel")
    n_opt = classical_threshold(k, TARGET, "nspin_optimal")
    print(f"{k:>5} {n_par:>11} {n_opt:>10} {n_par/n_opt:>12.1f}")

for mode in ("nspin_parallel", "nspin_optimal"):
    r = (classical_threshold(256, TARGET, mode)
         / classical_threshold(64, TARGET, mode))
    law = "N ~ k (ratio ~ 4)" if mode == "nspin_parallel" else "N ~ sqrt(k) (ratio ~ 2)"
    print(f"\n{mode}: threshold(256)/threshold(64) = {r:.2f}   [{law}]")

xi0 = BESSEL_J0_FIRST_ZERO
print(f"\nBessel-zero asymptote: (1 - x_n) 2 n^2 -> xi0^2 = {xi0**2:.4f}")
print(f"{'N':>5} {'(1-x_n) 2 n^2':>14} {'rel. err.':>10} {'F_1 exact':>10} {'F_1 asympt.':>11}")
for n_spins in (20, 50, 100, 200, 400):
    deg = n_spins // 2 + 1
    value = (1.0 - legendre_largest_zero(deg)) * 2.0 * deg ** 2
    f_exact = fidelity_from_delta(analytic_delta("nspin_optimal", n_spins, 1))
    print(f"{n_spins:>5} {value:>14.4f} {abs(value - xi0**2)/xi0**2:>10.4f} "
          f"{f_exact:>10.6f} {fk_asymptotic(n_spins, 1):>11.6f}")
