"""N-spin encodings: matrix, eigensolver, densities, chains, thresholds."""

import math

import numpy as np
import numpy.polynomial.legendre as npleg
import pytest

from spinrelay.encoding import (
    EncodingSpec,
    chain_delta,
    chain_dots_nspin,
    classical_threshold,
    delta_k_parallel_start,
    fk_asymptotic,
    fk_optimal,
    fk_parallel,
    jacobi_matrix,
    optimal_encoding,
    optimal_tilde_delta,
    outcome_density,
    parallel_tilde_delta,
    principal_eigenpair,
    sample_outcome_tilt,
    simulate_chain_nspin,
)
from spinrelay.encoding import _solve_shifted_tridiag
from spinrelay.legendre import legendre_largest_zero, legendre_values
from spinrelay.rng import RandomStream, as_generator


def _mean_se(samples):
    return samples.mean(), samples.std(ddof=1) / math.sqrt(samples.size)


def _random_encoding(n_spins, seed):
    gen = np.random.default_rng(seed)
    phi = gen.normal(size=n_spins // 2 + 1)
    return EncodingSpec(n_spins, phi / np.linalg.norm(phi))


# ---------------------------------------------------------------------------
# Matrix and eigensolver
# ---------------------------------------------------------------------------

class TestJacobiMatrix:
    def test_band_values(self):
        np.testing.assert_allclose(jacobi_matrix(2).off_diagonal,
                                   [1 / math.sqrt(3)], atol=1e-15)
        np.testing.assert_allclose(jacobi_matrix(4).off_diagonal,
                                   [1 / math.sqrt(3), 2 / math.sqrt(15)], atol=1e-15)

    def test_diagonal_zero(self):
        dense = jacobi_matrix(10).dense()
        np.testing.assert_array_equal(np.diag(dense), np.zeros(6))
        np.testing.assert_array_equal(dense, dense.T)

    def test_band_bounded_and_decreasing_to_half(self):
        off = jacobi_matrix(100).off_diagonal
        assert np.all((0.5 < off) & (off <= 1 / math.sqrt(3) + 1e-15))
        assert np.all(np.diff(off) < 0.0)
        assert off[-1] == pytest.approx(0.5, abs=1e-4)

    def test_eigenvalues_are_legendre_zeros(self):
        # dense oracle: eigenvalues of the N=2 matrix are +-1/sqrt(3), the
        # zeros of the degree-2 Legendre polynomial
        eigs = np.linalg.eigvalsh(jacobi_matrix(2).dense())
        np.testing.assert_allclose(eigs, [-1 / math.sqrt(3), 1 / math.sqrt(3)],
                                   atol=1e-14)

    @pytest.mark.parametrize("bad", [0, -2, 3, 7])
    def test_rejects_bad_sizes(self, bad):
        with pytest.raises(ValueError):
            jacobi_matrix(bad)


class TestTridiagSolve:
    def test_matches_dense_oracle(self):
        gen = np.random.default_rng(11)
        for dim in (1, 2, 3, 8, 40):
            off = gen.uniform(0.05, 0.5, max(dim - 1, 0))
            shift = gen.uniform(-1.2, 1.2)
            rhs = gen.normal(size=dim)
            dense = np.diag(off, 1) + np.diag(off, -1) - shift * np.eye(dim)
            x = _solve_shifted_tridiag(off, shift, rhs)
            np.testing.assert_allclose(dense @ x, rhs, atol=1e-10)


class TestPrincipalEigenpair:
    def test_two_spin_analytic(self):
        lam, vec = principal_eigenpair(jacobi_matrix(2))
        assert lam == pytest.approx(1 / math.sqrt(3), abs=1e-13)
        np.testing.assert_allclose(vec, [1 / math.sqrt(2), 1 / math.sqrt(2)],
                                   atol=1e-12)

    def test_four_spin_matches_root(self):
        lam, _ = principal_eigenpair(jacobi_matrix(4))
        assert lam == pytest.approx(legendre_largest_zero(3), abs=1e-13)

    def test_residual_contract(self):
        for n in (2, 8, 50, 200):
            matrix = jacobi_matrix(n)
            lam, vec = principal_eigenpair(matrix)
            assert np.linalg.norm(matrix.matvec(vec) - lam * vec) <= 1e-12
            assert abs(np.linalg.norm(vec) - 1.0) < 1e-12

    def test_matches_dense_eigensolver(self):
        for n in (2, 6, 20, 60):
            matrix = jacobi_matrix(n)
            lam, vec = principal_eigenpair(matrix)
            ref_vals, ref_vecs = np.linalg.eigh(matrix.dense())
            assert lam == pytest.approx(ref_vals[-1], abs=1e-12)
            ref = ref_vecs[:, -1]
            ref = ref if ref.sum() > 0 else -ref
            np.testing.assert_allclose(vec, ref, atol=1e-9)

    def test_eigenvector_closed_form(self):
        # components are proportional to sqrt(2J+1) P_J(lambda)
        for n in (4, 30, 200):
            lam, vec = principal_eigenpair(jacobi_matrix(n))
            degrees = np.arange(n // 2 + 1)
            closed = (np.sqrt(2.0 * degrees + 1.0)
                      * legendre_values(n // 2, lam))
            closed /= np.linalg.norm(closed)
            np.testing.assert_allclose(vec, closed, atol=1e-10)

    def test_root_identity_up_to_200(self):
        for n in range(2, 201, 2):
            lam, _ = principal_eigenpair(jacobi_matrix(n))
            assert abs(lam - legendre_largest_zero(n // 2 + 1)) < 1e-11

    def test_positivity_and_large_size(self):
        for n in (100, 2000):
            _, vec = principal_eigenpair(jacobi_matrix(n))
            assert np.all(vec > 0.0)


class TestOptimalEncoding:
    def test_two_spin(self):
        enc = optimal_encoding(2)
        np.testing.assert_allclose(enc.phi, [1 / math.sqrt(2), 1 / math.sqrt(2)],
                                   atol=1e-12)

    def test_normalized(self):
        enc = optimal_encoding(24)
        assert abs(enc.phi @ enc.phi - 1.0) < 1e-12

    def test_rejects_unnormalized_coefficients(self):
        with pytest.raises(ValueError):
            EncodingSpec(2, np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            EncodingSpec(4, np.array([1.0, 0.0]))


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

class TestClosedForms:
    def test_parallel_tilde_delta(self):
        assert parallel_tilde_delta(1) == pytest.approx(1 / 3, abs=1e-15)
        assert parallel_tilde_delta(2) == 0.5
        assert parallel_tilde_delta(10 ** 9) == pytest.approx(1.0, abs=1e-8)
        with pytest.raises(ValueError):
            parallel_tilde_delta(0)

    def test_optimal_tilde_delta(self):
        assert optimal_tilde_delta(2) == pytest.approx(1 / math.sqrt(3), abs=1e-13)
        assert optimal_tilde_delta(4) == pytest.approx(math.sqrt(3 / 5), abs=1e-13)
        assert optimal_tilde_delta(2) > parallel_tilde_delta(2)
        with pytest.raises(ValueError):
            optimal_tilde_delta(5)

    def test_fk_parallel(self):
        assert fk_parallel(1, 1) == pytest.approx(2 / 3, abs=1e-15)
        assert fk_parallel(2, 2) == pytest.approx(5 / 8, abs=1e-15)
        assert fk_parallel(10, 1) == pytest.approx(11 / 12, abs=1e-15)

    def test_fk_optimal(self):
        assert fk_optimal(2, 1) == pytest.approx(0.5 * (1 + 1 / math.sqrt(3)), abs=1e-13)
        assert fk_optimal(2, 5000) == pytest.approx(0.5, abs=1e-12)

    def test_optimal_dominates_parallel(self):
        for n in range(2, 101, 2):
            for k in (1, 3, 9):
                assert fk_optimal(n, k) >= fk_parallel(n, k)

    def test_mixed_start(self):
        assert delta_k_parallel_start(2, 1) == pytest.approx(0.5, abs=1e-15)
        assert delta_k_parallel_start(2, 2) == pytest.approx(0.5 / math.sqrt(3), abs=1e-13)
        # re-preparing optimally beats staying parallel from step 2 on
        assert delta_k_parallel_start(2, 2) > parallel_tilde_delta(2) ** 2

    def test_asymptotic(self):
        assert abs(fk_asymptotic(200, 1) - fk_optimal(200, 1)) < 5e-6
        assert 0.5 < fk_asymptotic(4, 1) < 1.0
        with pytest.raises(ValueError):
            fk_asymptotic(3, 1)

    def test_asymptote_with_halfinteger_degree(self):
        # (1 - x_n) * 2 * (n + 1/2)^2 is an even tighter approach to xi0^2
        from spinrelay.legendre import BESSEL_J0_FIRST_ZERO
        n = 101  # N = 200
        nu = n + 0.5
        value = (1.0 - legendre_largest_zero(n)) * 2.0 * nu * nu
        assert abs(value - BESSEL_J0_FIRST_ZERO ** 2) / BESSEL_J0_FIRST_ZERO ** 2 < 0.02

    def test_chain_delta(self):
        assert chain_delta([1 / 3, 1 / 3]) == pytest.approx(1 / 9, abs=1e-16)
        assert chain_delta([]) == 1.0
        x = optimal_tilde_delta(2)
        assert chain_delta([parallel_tilde_delta(2), x, x]) == pytest.approx(
            delta_k_parallel_start(2, 3), rel=1e-15)

    def test_monotonicity_in_size(self):
        opt = [optimal_tilde_delta(n) for n in range(2, 201, 2)]
        par = [parallel_tilde_delta(n) for n in range(1, 201)]
        assert all(a < b for a, b in zip(opt, opt[1:]))
        assert all(a < b for a, b in zip(par, par[1:]))
        for n, value in zip(range(2, 201, 2), opt):
            assert value > parallel_tilde_delta(n)

    def test_fidelity_decreases_in_k(self):
        for n in (2, 10):
            f_opt = [fk_optimal(n, k) for k in range(1, 8)]
            f_par = [fk_parallel(n, k) for k in range(1, 8)]
            assert all(a > b for a, b in zip(f_opt, f_opt[1:]))
            assert all(a > b for a, b in zip(f_par, f_par[1:]))
            assert all(0.5 < f <= 1.0 for f in f_opt + f_par)


# ---------------------------------------------------------------------------
# Outcome density
# ---------------------------------------------------------------------------

def _rotation_middle_element(j: int, theta: float) -> float:
    """Oracle: the <J,0| exp(-i theta J_y) |J,0> matrix element, computed
    from the actual angular-momentum representation."""
    ms = np.arange(j, -j - 1, -1, dtype=float)
    dim = ms.size
    jy = np.zeros((dim, dim), dtype=complex)
    for row, m in enumerate(ms):
        if row > 0:  # raising: |J,m> -> |J,m+1>
            amp = math.sqrt(j * (j + 1) - m * (m + 1))
            jy[row - 1, row] += amp / 2j
        if row < dim - 1:  # lowering
            amp = math.sqrt(j * (j + 1) - m * (m - 1))
            jy[row + 1, row] -= amp / 2j
    vals, vecs = np.linalg.eigh(jy)
    u = (vecs * np.exp(-1j * theta * vals)) @ vecs.conj().T
    middle = int(np.where(ms == 0.0)[0][0])
    return float(u[middle, middle].real)


def test_rotation_overlap_is_legendre_polynomial():
    # the bridge the density construction stands on: the zero-projection
    # overlap of a tilted spin-J block equals P_J(cos(theta))
    for j in range(7):
        for theta in (0.0, 0.4, 1.0, 2.2, math.pi):
            expected = legendre_values(j, math.cos(theta))[j]
            assert _rotation_middle_element(j, theta) == pytest.approx(
                float(expected), abs=1e-12), f"J={j}, theta={theta}"


class TestOutcomeDensity:
    def test_value_at_one(self):
        density = outcome_density(optimal_encoding(2))
        assert density.pdf(1.0) == pytest.approx((1 + math.sqrt(3)) ** 2 / 4, abs=1e-12)

    @pytest.mark.parametrize("n_spins", [2, 4, 10, 50])
    def test_normalization_by_quadrature(self, n_spins):
        density = outcome_density(optimal_encoding(n_spins))
        nodes, weights = npleg.leggauss(n_spins + 2)
        assert float(weights @ density.pdf(nodes)) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mean_identity_random_encodings(self, seed):
        # int x g(x) dx equals the quadratic form phi' M phi for ANY encoding
        enc = _random_encoding(12, seed)
        density = outcome_density(enc)
        nodes, weights = npleg.leggauss(14)
        quad = float(weights @ (nodes * density.pdf(nodes)))
        matrix = jacobi_matrix(12)
        assert quad == pytest.approx(float(enc.phi @ matrix.matvec(enc.phi)), abs=1e-10)
        assert density.mean_tilt() == pytest.approx(quad, abs=1e-10)

    def test_pdf_matches_direct_formula(self):
        enc = _random_encoding(8, 5)
        density = outcome_density(enc)
        xs = np.linspace(-1.0, 1.0, 23)
        degrees = np.arange(enc.phi.size)
        amp = (np.sqrt(2 * degrees + 1.0) * enc.phi) @ legendre_values(enc.phi.size - 1, xs)
        np.testing.assert_allclose(density.pdf(xs), 0.5 * amp ** 2,
                                   rtol=1e-10, atol=1e-12)

    def test_pdf_nonnegative_and_cdf_monotone(self):
        density = outcome_density(optimal_encoding(20))
        xs = np.linspace(-1.0, 1.0, 2001)
        assert np.all(density.pdf(xs) >= -1e-12)
        cdf = density.cdf(xs)
        assert np.all(np.diff(cdf) >= -1e-12)
        assert density.cdf(-1.0) == pytest.approx(0.0, abs=1e-12)
        assert density.cdf(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_mean_tilt_of_optimal_is_largest_zero(self):
        for n in (2, 4, 40):
            density = outcome_density(optimal_encoding(n))
            assert density.mean_tilt() == pytest.approx(
                legendre_largest_zero(n // 2 + 1), abs=1e-11)


@pytest.fixture(scope="module")
def optimal_densities():
    """Optimal-encoding densities with their inverse-CDF tables built."""
    densities = {n: outcome_density(optimal_encoding(n)) for n in (2, 40, 280, 1000)}
    for density in densities.values():
        density._inverse_table
    return densities


class TestOutcomeSampling:
    @pytest.mark.parametrize("n_spins,target", [
        (2, 1 / math.sqrt(3)),
        (4, math.sqrt(3 / 5)),
    ])
    def test_sample_mean(self, n_spins, target):
        density = outcome_density(optimal_encoding(n_spins))
        x = sample_outcome_tilt(density, RandomStream(97), 100_000)
        mean, se = _mean_se(x)
        assert abs(mean - target) < 3 * se

    def test_sample_range_and_scalar(self):
        density = outcome_density(optimal_encoding(6))
        x = sample_outcome_tilt(density, RandomStream(3), 50_000)
        assert np.all((-1.0 <= x) & (x <= 1.0))
        assert isinstance(sample_outcome_tilt(density, RandomStream(3)), float)

    def test_sample_ks_against_exact_cdf(self):
        # N = 280 puts the mass within ~1e-4 of x = 1
        for n_spins in (4, 280):
            density = outcome_density(optimal_encoding(n_spins))
            x = np.sort(sample_outcome_tilt(density, RandomStream(98), 100_000))
            cdf = density.cdf(x)
            n = x.size
            ks = max(np.max(np.abs(np.arange(1, n + 1) / n - cdf)),
                     np.max(np.abs(np.arange(0, n) / n - cdf)))
            assert ks < 1.62762 / math.sqrt(n), f"N={n_spins}"

    @pytest.mark.parametrize("n_spins", [2, 40, 280, 1000])
    def test_table_within_tol_between_knots(self, optimal_densities, n_spins):
        # one random angle inside every table interval, against the exact
        # series CDF: the refinement only checks midpoints
        density = optimal_densities[n_spins]
        table_g, table_theta = density._inverse_table
        frac = np.random.default_rng(n_spins).random(table_theta.size - 1)
        theta = table_theta[:-1] + frac * np.diff(table_theta)
        exact = 1.0 - density.cdf(np.cos(theta))
        gap = np.abs(np.interp(theta, table_theta, table_g) - exact)
        assert gap.max() <= density.table_tol

    @pytest.mark.parametrize("n_spins", [2, 40, 280, 1000])
    def test_sample_inverts_cdf_of_its_draw(self, optimal_densities, n_spins):
        # x = F^-1(u) for the stream's own uniform draw u, so a seed maps
        # to the same outcomes as under the exact inverse CDF
        density = optimal_densities[n_spins]
        u = as_generator(RandomStream(7)).random(10_000)
        x = sample_outcome_tilt(density, RandomStream(7), 10_000)
        assert np.max(np.abs(density.cdf(x) - u)) <= density.table_tol

    @pytest.mark.parametrize("n_spins", [2, 40, 280, 1000])
    def test_table_mean_is_largest_zero(self, optimal_densities, n_spins):
        # theta is uniform on each table segment [a, b] with probability
        # dG, so the sampler's exact mean of cos(theta) is a finite sum
        table_g, table_theta = optimal_densities[n_spins]._inverse_table
        a, b = table_theta[:-1], table_theta[1:]
        mean = float(np.sum(np.diff(table_g) * (np.sin(b) - np.sin(a)) / (b - a)))
        assert mean == pytest.approx(optimal_tilde_delta(n_spins), abs=1e-6)

    def test_large_n_table_builds(self, optimal_densities):
        # the mass lies within ~1e-5 of x = 1: a uniform grid in x would
        # need more than 2^21 knots
        density = optimal_densities[1000]
        x = sample_outcome_tilt(density, RandomStream(99), 10_000)
        assert np.all((-1.0 <= x) & (x <= 1.0))
        mean, se = _mean_se(x)
        assert abs(mean - optimal_tilde_delta(1000)) < 4 * se


# ---------------------------------------------------------------------------
# Chains
# ---------------------------------------------------------------------------

class TestNspinChains:
    def test_validation(self):
        with pytest.raises(ValueError):
            chain_dots_nspin(3, 1, "optimal", RandomStream(1), 10)
        with pytest.raises(ValueError):
            chain_dots_nspin(0, 1, "parallel", RandomStream(1), 10)
        with pytest.raises(ValueError):
            chain_dots_nspin(2, 0, "optimal", RandomStream(1), 10)
        with pytest.raises(ValueError):
            chain_dots_nspin(2, 1, "entangled", RandomStream(1), 10)

    def test_record_structure(self):
        rec = simulate_chain_nspin(4, 3, "optimal", RandomStream(8))
        assert rec.n_observers == 3
        np.testing.assert_allclose(np.linalg.norm(rec.estimates, axis=1), 1.0,
                                   atol=1e-12)

    def test_single_spin_parallel_chain(self):
        # N = 1 parallel is exactly the single-qubit optimal chain: 1/27 at k=3
        dots = chain_dots_nspin(1, 3, "parallel", RandomStream(41), 300_000)
        mean, se = _mean_se(dots[:, 2])
        assert abs(mean - 1.0 / 27.0) < 3 * se

    def test_optimal_two_spin_chain(self):
        # two observers on the entangled pair: (1/sqrt(3))^2 = 1/3
        dots = chain_dots_nspin(2, 2, "optimal", RandomStream(42), 10 ** 6)
        mean, se = _mean_se(dots[:, 1])
        assert abs(mean - 1.0 / 3.0) < 3 * se

    def test_parallel_start_chain(self):
        dots = chain_dots_nspin(4, 2, "parallel_start", RandomStream(43), 200_000)
        mean, se = _mean_se(dots[:, 1])
        assert abs(mean - delta_k_parallel_start(4, 2)) < 3 * se

    @pytest.mark.parametrize("n_spins", [2, 4, 10])
    def test_product_law_per_step_ratio(self, n_spins):
        # estimated delta_k / delta_{k-1} is compatible with the per-step
        # factor for k = 2..4 (delta method with per-trajectory covariance)
        dots = chain_dots_nspin(n_spins, 4, "optimal", RandomStream(44).child(n_spins),
                                200_000)
        step = optimal_tilde_delta(n_spins)
        n = dots.shape[0]
        for k in range(2, 5):
            a, b = dots[:, k - 1], dots[:, k - 2]
            ma, mb = a.mean(), b.mean()
            cov = np.cov(a, b, ddof=1)
            ratio = ma / mb
            var_ratio = (cov[0, 0] + ratio ** 2 * cov[1, 1]
                         - 2.0 * ratio * cov[0, 1]) / (mb ** 2 * n)
            se = math.sqrt(var_ratio)
            assert abs(ratio - step) < 3 * se, (
                f"N={n_spins}, k={k}: ratio {ratio:.4f} vs step {step:.4f}")

    def test_chain_reproducible(self):
        a = chain_dots_nspin(2, 2, "optimal", RandomStream(45), 1000)
        b = chain_dots_nspin(2, 2, "optimal", RandomStream(45), 1000)
        np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# Thresholds
# ---------------------------------------------------------------------------

class TestClassicalThreshold:
    def test_single_observer_parallel(self):
        assert classical_threshold(1, 2.0 / 3.0, "parallel") == 1

    def test_threshold_is_minimal(self):
        for k, target, encoding in [(4, 0.8, "parallel"), (16, 0.9, "optimal")]:
            n = classical_threshold(k, target, encoding)
            fk = fk_parallel if encoding == "parallel" else fk_optimal
            step = 1 if encoding == "parallel" else 2
            assert fk(n, k) >= target
            if n - step >= 1:
                assert fk(n - step, k) < target

    def test_optimal_needs_fewer_spins(self):
        for k in (4, 32, 128):
            for target in (0.75, 0.9):
                assert (classical_threshold(k, target, "optimal")
                        <= classical_threshold(k, target, "parallel"))

    def test_validation(self):
        with pytest.raises(ValueError):
            classical_threshold(0, 0.9, "parallel")
        with pytest.raises(ValueError):
            classical_threshold(1, 0.4, "parallel")
        with pytest.raises(ValueError):
            classical_threshold(1, 0.9, "sequential")
