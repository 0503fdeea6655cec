#!/usr/bin/env python3
"""How the re-preparation choice controls the damage done.

A covariant POVM fixes the outcome statistics, but the experimenter still
chooses what to hand to the next observer.  Parameterizing that choice by
the angle phi between the guess and the re-prepared direction gives a
one-parameter family: phi = 0 re-prepares the guess (least disturbance),
phi = pi re-prepares the opposite direction (worst case, traceless Kraus
operators).

Averaged over outcomes, one pass acts on the Bloch vector as a
depolarizing channel with shrink eta = (c - 1)/3, where c = 1 + cos(phi)
is the disturbance constant.  The script verifies eta end to end: the
overlap of the k-th handed-on state with the truth matches eta^k.
"""

import numpy as np

from spinrelay import RandomStream, chain_dots_nspin, disturbance_constant, eta_from_c

TRIALS = 100_000
K = 3

print(f"{'phi/pi':>7} {'c':>6} {'eta':>8} {'eta^3':>9} "
      f"{'MC overlap of state 3':>22} {'z':>6}")

for i, phi in enumerate(np.linspace(0.0, np.pi, 9)):
    c = disturbance_constant(float(phi))
    eta = eta_from_c(c)
    dots = chain_dots_nspin(1, K, "single_qubit", RandomStream(10).child(i), TRIALS,
                            float(phi), "prepared")
    col = dots[:, K - 1]
    se = col.std(ddof=1) / np.sqrt(TRIALS)
    z = (col.mean() - eta ** K) / se
    print(f"{phi/np.pi:>7.3f} {c:>6.3f} {eta:>+8.4f} {eta**K:>+9.5f} "
          f"{col.mean():>+22.5f} {z:>+6.2f}")

print("\nc runs from 2 (dimension bound, gentlest touch) down to 0")
print("(traceless Kraus operators); eta = (c-1)/3 covers [-1/3, 1/3].")
print("The guess quality of the NEXT observer is 1/3 of the state overlap,")
print("so a vindictive observer (phi = pi) flips the sign of what followers")
print("can learn without destroying the magnitude.")
