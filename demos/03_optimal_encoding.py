#!/usr/bin/env python3
"""Entangled encodings survive observation better than parallel copies.

With N spins available, the obvious encoding is N parallel copies of the
direction; its per-observer shrink factor is N/(N+2).  The best encoding
instead superposes the zero-projection states |J,0> of the total-spin
blocks with weights given by the principal eigenvector of a tridiagonal
matrix -- and its per-observer shrink factor is the largest zero x of the
Legendre polynomial of degree N/2 + 1, strictly larger for every even N.
That eigenvector has the closed form phi_J ~ sqrt(2J+1) P_J(x).

The script prints both factors, the optimal coefficients for small N,
checks the closed form against a dense eigensolver through the
eigenvalue/root/quadrature triangle, and runs the mixed protocol
(parallel source, optimal re-preparation) as a Monte Carlo check.
"""

import numpy as np
import numpy.polynomial.legendre as npleg

from spinrelay import (
    RandomStream,
    analytic_delta,
    mc_estimate_delta,
    optimal_encoding,
    optimal_tilde_delta,
    outcome_density,
    parallel_tilde_delta,
)
from spinrelay.encoding import jacobi_matrix

print(f"{'N':>4} {'parallel N/(N+2)':>17} {'optimal x_(N/2+1)':>18} {'gain':>7}")
for n in (2, 4, 6, 10, 20, 50, 100):
    par, opt = parallel_tilde_delta(n), optimal_tilde_delta(n)
    print(f"{n:>4} {par:>17.6f} {opt:>18.6f} {opt/par:>7.4f}")

print("\nOptimal coefficients over |J,0> for N = 6:")
enc = optimal_encoding(6)
for j, coeff in enumerate(enc.phi):
    print(f"  J={j}: {coeff:+.6f}")

# the triangle identity: top eigenvalue of the dense matrix == Legendre
# root == mean of the closed-form encoding's outcome-tilt density
# (computed by Gauss-Legendre quadrature)
n = 12
vals, vecs = np.linalg.eigh(jacobi_matrix(n))
enc = optimal_encoding(n)
density = outcome_density(enc)
nodes, weights = npleg.leggauss(n + 2)
quad_mean = float(weights @ (nodes * density.pdf(nodes)))
print(f"\nN = {n} triangle: dense eigenvalue {vals[-1]:.12f}, "
      f"root {optimal_tilde_delta(n):.12f}, density mean {quad_mean:.12f}")
print(f"closed-form vs dense eigenvector: max |diff| = "
      f"{np.max(np.abs(enc.phi - np.abs(vecs[:, -1]))):.1e}")

# mixed protocol: parallel source, optimal re-preparation from observer 1 on
TRIALS = 300_000
ests = mc_estimate_delta("parallel_start", 4, (1, 2, 3), 0.0, TRIALS, RandomStream(5))
print(f"\nMixed protocol, N = 4 ({TRIALS:,} trajectories):")
print(f"{'k':>2} {'closed form':>12} {'MC':>10} {'z':>6}")
for k, est in zip((1, 2, 3), ests):
    ref = analytic_delta("parallel_start", 4, k)
    print(f"{k:>2} {ref:>12.6f} {est.mean:>10.6f} {est.z_score(ref):>+6.2f}")

print("\nEntanglement in the encoding buys robustness: the optimal shrink")
print("factor approaches 1 like 1 - 2 xi0^2/N^2 instead of 1 - 2/N.")
