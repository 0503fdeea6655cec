"""The acceptance suite: every release-gating check, one function each.

Each criterion returns a :class:`CriterionResult`; the CLI ``selftest``
subcommand and the pytest acceptance module both drive these functions so
the gate is identical everywhere.  Tolerances are fixed here, not tuned.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
import time

import numpy as np
from numpy.polynomial import legendre as npleg

from .encoding import jacobi_matrix, optimal_encoding, outcome_density
from .laws import classical_threshold
from .legendre import BESSEL_J0_FIRST_ZERO, legendre_largest_zero
from .qubit import disturbance_constant, eta_from_c, stern_gerlach
from .rng import RandomStream
from .sweep import SweepConfig, mc_estimate_delta, records_to_bytes, run_sweep


def _chain_stream(criterion: int, chain: int) -> RandomStream:
    """Chain i of criterion c runs on RandomStream(42).child(c).child(i), so
    none runs on s.child(j), where chunk j of a chain on stream s draws."""
    return RandomStream(42).child(criterion).child(chain)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str


def criterion_1() -> CriterionResult:
    """Single-qubit law: MC shrink factors match 3^-k for k = 1..4."""
    start = time.perf_counter()
    ests = mc_estimate_delta("single_qubit", 1, range(1, 5), 0.0, 10 ** 6, _chain_stream(1, 0))
    zs = [est.z_score(3.0 ** -k) for k, est in zip(range(1, 5), ests)]
    elapsed = time.perf_counter() - start
    within3 = sum(abs(z) <= 3.0 for z in zs)
    passed = all(abs(z) <= 4.0 for z in zs) and within3 >= 3 and elapsed < 10.0
    detail = (f"z = {', '.join(f'{z:+.2f}' for z in zs)} for k=1..4 "
              f"(1e6 trials, seed 42), {elapsed:.1f} s")
    return CriterionResult(1, "single-qubit exponential decay", passed, detail)


def criterion_2() -> CriterionResult:
    """Kraus family: k-fold channel shrink matches (cos(phi)/3)^2 at k=2."""
    zs = []
    for i, phi in enumerate((0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi)):
        eta = eta_from_c(disturbance_constant(phi))
        [est] = mc_estimate_delta("single_qubit", 1, (2,), phi, 10 ** 5,
                                  _chain_stream(2, i), "prepared")
        zs.append(est.z_score(eta ** 2))
    passed = all(abs(z) <= 3.0 for z in zs)
    detail = f"z = {', '.join(f'{z:+.2f}' for z in zs)} for phi in {{0..pi}} (1e5 trials)"
    return CriterionResult(2, "Kraus-family channel composition", passed, detail)


def criterion_3() -> CriterionResult:
    """The Stern-Gerlach chain and the covariant one agree."""
    cov = mc_estimate_delta("single_qubit", 1, (1, 2, 3), 0.0, 10 ** 5, _chain_stream(3, 0))
    sg = mc_estimate_delta("single_qubit", 1, (1, 2, 3), 0.0, 10 ** 5, _chain_stream(3, 1),
                           measure=stern_gerlach)
    zs = [(a.mean - b.mean) / math.hypot(a.stderr, b.stderr) for a, b in zip(cov, sg)]
    passed = all(abs(z) <= 3.0 for z in zs)
    detail = f"combined z = {', '.join(f'{z:+.2f}' for z in zs)} for k=1..3"
    return CriterionResult(3, "scheme equivalence (SG vs covariant)", passed, detail)


def criterion_4() -> CriterionResult:
    """Parallel encoding: MC shrink matches (N/(N+2))^k."""
    zs = []
    for i, n in enumerate((2, 4, 10)):
        ests = mc_estimate_delta("nspin_parallel", n, (1, 2), 0.0, 10 ** 5,
                                 _chain_stream(4, i))
        zs += [est.z_score((n / (n + 2.0)) ** k) for k, est in zip((1, 2), ests)]
    passed = all(abs(z) <= 3.0 for z in zs)
    detail = (f"z = {', '.join(f'{z:+.2f}' for z in zs)} over "
              f"N in {{2,4,10}} x k in {{1,2}} (1e5 trials)")
    return CriterionResult(4, "parallel-encoding fidelity law", passed, detail)


def criterion_5() -> CriterionResult:
    """Eigenvalue / Legendre-root / quadrature triangle for even N <= 200.

    The top eigenvalue comes from a dense eigensolver, independent of the
    closed-form encoding, whose outcome density must reproduce it as its
    mean: the mean is the encoding's Rayleigh quotient, which reaches the
    top eigenvalue only at the principal eigenvector.
    """
    start = time.perf_counter()
    worst_root = 0.0
    worst_quad = 0.0
    for n in range(2, 201, 2):
        lam = float(np.linalg.eigvalsh(jacobi_matrix(n))[-1])
        worst_root = max(worst_root, abs(lam - legendre_largest_zero(n // 2 + 1)))
        density = outcome_density(optimal_encoding(n))
        nodes, weights = npleg.leggauss(n + 2)
        quad = float(np.sum(weights * nodes * density.pdf(nodes)))
        worst_quad = max(worst_quad, abs(lam - quad))
    elapsed = time.perf_counter() - start
    passed = worst_root < 1e-11 and worst_quad < 1e-10 and elapsed < 5.0
    detail = (f"max |lambda - x| = {worst_root:.2e}, "
              f"max |lambda - int x g| = {worst_quad:.2e}, {elapsed:.1f} s")
    return CriterionResult(5, "optimal-encoding triangle identity", passed, detail)


def criterion_6() -> CriterionResult:
    """Mixed start: N=4 parallel copies, optimal second measurement."""
    [est] = mc_estimate_delta("parallel_start", 4, (2,), 0.0, 10 ** 6, _chain_stream(6, 0))
    ref = (4.0 / 6.0) * math.sqrt(3.0 / 5.0)  # 0.5164 to 4 s.f.
    z = est.z_score(ref)
    passed = abs(z) <= 3.0
    detail = f"mean = {est.mean:.6f}, expected {ref:.6f}, z = {z:+.2f} (1e6 trials, seed 42)"
    return CriterionResult(6, "mixed-start chain value", passed, detail)


def criterion_7() -> CriterionResult:
    """(1 - x_n) 2 n^2 approaches the squared Bessel zero as N grows."""
    xi0_sq = BESSEL_J0_FIRST_ZERO ** 2
    errors = []
    for n_spins in (20, 50, 100, 200):
        deg = n_spins // 2 + 1
        value = (1.0 - legendre_largest_zero(deg)) * 2.0 * deg ** 2
        errors.append(abs(value - xi0_sq) / xi0_sq)
    monotone = all(a > b for a, b in zip(errors, errors[1:]))
    passed = monotone and errors[-1] < 0.02
    detail = ("relative error " +
              ", ".join(f"{e:.4f}" for e in errors) +
              f" at N = 20, 50, 100, 200 (target {xi0_sq:.4f})")
    return CriterionResult(7, "Bessel-zero asymptote of the largest root", passed, detail)


def criterion_8() -> CriterionResult:
    """Threshold N for F_k = 0.9 scales ~k (parallel) vs ~sqrt(k) (optimal)."""
    start = time.perf_counter()
    par = [classical_threshold(k, 0.9, "nspin_parallel") for k in (64, 256)]
    opt = [classical_threshold(k, 0.9, "nspin_optimal") for k in (64, 256)]
    ratio_par = par[1] / par[0]
    ratio_opt = opt[1] / opt[0]
    elapsed = time.perf_counter() - start
    passed = 3.5 <= ratio_par <= 4.5 and 1.7 <= ratio_opt <= 2.3 and elapsed < 1.0
    detail = (f"parallel {par[0]} -> {par[1]} (ratio {ratio_par:.2f}), "
              f"optimal {opt[0]} -> {opt[1]} (ratio {ratio_opt:.2f}), {elapsed:.2f} s")
    return CriterionResult(8, "classical-transition scaling", passed, detail)


def criterion_9() -> CriterionResult:
    """Identical sweeps are byte-identical, whatever the worker count."""
    def output(workers: int) -> bytes:
        # three one-chunk chains, so that three workers run at once; seed 9, as
        # at 42 cell N's stream would be chunk 1 of criterion 2's chain N
        cfg = SweepConfig(mode="nspin_optimal", n_values=(2, 4, 6), k_values=(1, 2, 3, 4),
                          trials=10 ** 4, seed=9, fmt="csv", workers=workers)
        return records_to_bytes(run_sweep(cfg), cfg.fmt)

    first, second, threaded = output(1), output(1), output(3)
    passed = first == second == threaded
    detail = (f"{len(first)} bytes; repeat identical: {first == second}, "
              f"3 workers identical: {first == threaded}")
    return CriterionResult(9, "sweep determinism across workers", passed, detail)


_CRITERIA = {
    1: criterion_1, 2: criterion_2, 3: criterion_3, 4: criterion_4,
    5: criterion_5, 6: criterion_6, 7: criterion_7, 8: criterion_8,
    9: criterion_9,
}


def run_criteria(numbers=None) -> list[CriterionResult]:
    """Run the requested criteria (all of them by default), in order."""
    if numbers is None:
        numbers = sorted(_CRITERIA)
    unknown = [n for n in numbers if n not in _CRITERIA]
    if unknown:
        raise ValueError(f"unknown criteria: {unknown}")
    return [_CRITERIA[n]() for n in numbers]
