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

from spinrelay import (RandomStream, analytic_delta, fidelity_from_delta, mc_estimate_delta,
                       stern_gerlach)

TRIALS = 200_000
K_MAX = 6
KS = range(1, K_MAX + 1)

print(f"{TRIALS:,} trajectories, chain of {K_MAX} observers\n")
print(f"{'k':>2} {'F_k closed form':>16} {'F_k covariant MC':>18} "
      f"{'F_k Stern-Gerlach':>18} {'z_cov':>6}")

cov = mc_estimate_delta("single_qubit", 1, KS, 0.0, TRIALS, RandomStream(1))
sg = mc_estimate_delta("single_qubit", 1, KS, 0.0, TRIALS, RandomStream(2), measure=stern_gerlach)

for k, est_cov, est_sg in zip(KS, cov, sg):
    ref = analytic_delta("single_qubit", 1, k)
    print(f"{k:>2} {fidelity_from_delta(ref):>16.6f} {fidelity_from_delta(est_cov.mean):>18.6f} "
          f"{fidelity_from_delta(est_sg.mean):>18.6f} {est_cov.z_score(ref):>+6.2f}")

print("\nEvery observer beats coin flipping (F > 1/2), yet the advantage")
print("shrinks by a factor of 3 per observer: information is recyclable,")
print("but it degrades exponentially with the tally number.")
