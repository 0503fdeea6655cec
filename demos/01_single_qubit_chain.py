#!/usr/bin/env python3
"""A single qubit read by a chain of observers.

One spin-1/2 encodes an unknown direction.  Each observer in turn applies
the optimal covariant measurement, announces a guess, and passes the
re-prepared state on.  The mean overlap of guess k with the truth is
exactly 3^-k, i.e. the fidelity decays exponentially in the observer's
position -- but it never reaches the random-guessing floor of 1/2.

The script checks the closed form against seeded Monte Carlo and shows
that a Stern-Gerlach realization (random axis, two outcomes, by the Born
rule) produces the same statistics as the continuous covariant POVM: both
run on one chain kernel, and only the sampler of each observer's tilt
differs.
"""

import numpy as np

from spinrelay import (RandomStream, analytic_delta, chain_dots_nspin, fidelity_from_delta,
                       stern_gerlach)

TRIALS = 200_000
K_MAX = 6

print(f"{TRIALS:,} trajectories, chain of {K_MAX} observers\n")
print(f"{'k':>2} {'F_k closed form':>16} {'F_k covariant MC':>18} "
      f"{'F_k Stern-Gerlach':>18} {'z_cov':>6}")

cov = chain_dots_nspin(1, K_MAX, "single_qubit", RandomStream(1), TRIALS)
sg = chain_dots_nspin(1, K_MAX, "single_qubit", RandomStream(2), TRIALS, measure=stern_gerlach)

for k in range(1, K_MAX + 1):
    exact = fidelity_from_delta(analytic_delta("single_qubit", 1, k))
    d_cov, d_sg = cov[:, k - 1], sg[:, k - 1]
    f_cov = 0.5 * (1.0 + d_cov.mean())
    f_sg = 0.5 * (1.0 + d_sg.mean())
    se = 0.5 * d_cov.std(ddof=1) / np.sqrt(TRIALS)
    z = (f_cov - exact) / se
    print(f"{k:>2} {exact:>16.6f} {f_cov:>18.6f} {f_sg:>18.6f} {z:>+6.2f}")

print("\nEvery observer beats coin flipping (F > 1/2), yet the advantage")
print("shrinks by a factor of 3 per observer: information is recyclable,")
print("but it degrades exponentially with the tally number.")
