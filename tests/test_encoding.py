"""N-spin encodings: matrix, closed-form encoding, densities, chains, thresholds."""

from collections import Counter
from functools import partial
import json
import math

import numpy as np
import numpy.polynomial.legendre as npleg
import pytest

from spinrelay import encoding, laws
from spinrelay.cli import main
from spinrelay.encoding import (
    EncodingSpec,
    chain_dots_nspin,
    jacobi_matrix,
    optimal_encoding,
    outcome_density,
)
from spinrelay.laws import (
    analytic_delta,
    chain_laws,
    classical_threshold,
    fidelity_from_delta,
    fk_asymptotic,
    optimal_tilde_delta,
    parallel_tilde_delta,
)
from spinrelay.legendre import legendre_largest_zero
from spinrelay.qubit import stern_gerlach
from spinrelay.rng import RandomStream

import chain3d
from chain3d import chain_dots_3d


def _mean_se(samples):
    return samples.mean(), samples.std(ddof=1) / math.sqrt(samples.size)


def _fidelity(mode, n_spins, k):
    return fidelity_from_delta(analytic_delta(mode, n_spins, k))


def _random_encoding(n_spins, seed):
    gen = np.random.default_rng(seed)
    phi = gen.normal(size=n_spins // 2 + 1)
    return EncodingSpec(n_spins, phi / np.linalg.norm(phi))


# ---------------------------------------------------------------------------
# Matrix and closed-form encoding against the dense eigensolver
# ---------------------------------------------------------------------------

def _dense_top_eigenpair(n_spins):
    """Oracle: top eigenpair of the dense Jacobi matrix, vector sign fixed."""
    vals, vecs = np.linalg.eigh(jacobi_matrix(n_spins))
    vec = vecs[:, -1]
    return vals[-1], vec if vec.sum() > 0 else -vec


class TestJacobiMatrix:
    def test_band_values(self):
        np.testing.assert_allclose(np.diag(jacobi_matrix(2), 1),
                                   [1 / math.sqrt(3)], atol=1e-15)
        np.testing.assert_allclose(np.diag(jacobi_matrix(4), 1),
                                   [1 / math.sqrt(3), 2 / math.sqrt(15)], atol=1e-15)

    def test_diagonal_zero(self):
        dense = jacobi_matrix(10)
        np.testing.assert_array_equal(np.diag(dense), np.zeros(6))
        np.testing.assert_array_equal(dense, dense.T)

    def test_band_bounded_and_decreasing_to_half(self):
        off = np.diag(jacobi_matrix(100), 1)
        assert np.all((0.5 < off) & (off <= 1 / math.sqrt(3) + 1e-15))
        assert np.all(np.diff(off) < 0.0)
        assert off[-1] == pytest.approx(0.5, abs=1e-4)

    def test_eigenvalues_are_legendre_zeros(self):
        # dense oracle: eigenvalues of the N=2 matrix are +-1/sqrt(3), the
        # zeros of the degree-2 Legendre polynomial
        eigs = np.linalg.eigvalsh(jacobi_matrix(2))
        np.testing.assert_allclose(eigs, [-1 / math.sqrt(3), 1 / math.sqrt(3)],
                                   atol=1e-14)

    @pytest.mark.parametrize("bad", [0, -2, 3, 7])
    def test_rejects_bad_sizes(self, bad):
        with pytest.raises(ValueError):
            jacobi_matrix(bad)


class TestPrincipalEigenpair:
    """The closed form phi_J ~ sqrt(2J+1) P_J(x_{N/2+1}) and its shrink
    factor, checked against dense ``np.linalg.eigh``."""

    def test_two_spin_analytic(self):
        lam, vec = _dense_top_eigenpair(2)
        assert lam == pytest.approx(1 / math.sqrt(3), abs=1e-13)
        np.testing.assert_allclose(vec, [1 / math.sqrt(2), 1 / math.sqrt(2)],
                                   atol=1e-12)
        np.testing.assert_allclose(optimal_encoding(2).phi, vec, atol=1e-12)

    def test_four_spin_matches_root(self):
        lam, _ = _dense_top_eigenpair(4)
        assert lam == pytest.approx(legendre_largest_zero(3), abs=1e-13)

    def test_residual_contract(self):
        for n in range(2, 201, 2):
            phi = optimal_encoding(n).phi
            x = optimal_tilde_delta(n)
            assert np.linalg.norm(jacobi_matrix(n) @ phi - x * phi) <= 1e-12, f"N={n}"

    def test_matches_dense_eigensolver(self):
        for n in (2, 6, 20, 60, 200):
            lam, vec = _dense_top_eigenpair(n)
            assert optimal_tilde_delta(n) == pytest.approx(lam, abs=1e-12)
            np.testing.assert_allclose(optimal_encoding(n).phi, vec, atol=1e-10,
                                       err_msg=f"N={n}")

    def test_root_identity_up_to_200(self):
        for n in range(2, 201, 2):
            lam = np.linalg.eigvalsh(jacobi_matrix(n))[-1]
            assert abs(lam - legendre_largest_zero(n // 2 + 1)) < 1e-11

    def test_positivity_and_large_size(self):
        for n in (100, 2000, 10_000):
            phi = optimal_encoding(n).phi
            assert phi.shape == (n // 2 + 1,)
            assert np.all(phi > 0.0), f"N={n}"

    def test_encode_cli_matches_dense_eigensolver(self, capsys):
        assert main(["encode", "--n", "200"]) == 0
        payload = json.loads(capsys.readouterr().out)
        lam, vec = _dense_top_eigenpair(200)
        assert payload["optimal_tilde_delta"] == pytest.approx(lam, abs=1e-12)
        np.testing.assert_allclose(payload["phi"], vec, atol=1e-10)


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
        assert _fidelity("nspin_parallel", 1, 1) == pytest.approx(2 / 3, abs=1e-15)
        assert _fidelity("nspin_parallel", 2, 2) == pytest.approx(5 / 8, abs=1e-15)
        assert _fidelity("nspin_parallel", 10, 1) == pytest.approx(11 / 12, abs=1e-15)

    def test_fk_optimal(self):
        assert _fidelity("nspin_optimal", 2, 1) == pytest.approx(
            0.5 * (1 + 1 / math.sqrt(3)), abs=1e-13)
        assert _fidelity("nspin_optimal", 2, 5000) == pytest.approx(0.5, abs=1e-12)

    def test_optimal_dominates_parallel(self):
        for n in range(2, 101, 2):
            for k in (1, 3, 9):
                assert _fidelity("nspin_optimal", n, k) >= _fidelity("nspin_parallel", n, k)

    def test_mixed_start(self):
        assert analytic_delta("parallel_start", 2, 1) == pytest.approx(0.5, abs=1e-15)
        assert analytic_delta("parallel_start", 2, 2) == pytest.approx(
            0.5 / math.sqrt(3), abs=1e-13)
        # re-preparing optimally beats staying parallel from step 2 on
        assert analytic_delta("parallel_start", 2, 2) > parallel_tilde_delta(2) ** 2

    def test_asymptotic(self):
        assert abs(fk_asymptotic(200, 1) - _fidelity("nspin_optimal", 200, 1)) < 5e-6
        assert 0.5 < fk_asymptotic(4, 1) < 1.0
        with pytest.raises(ValueError):
            fk_asymptotic(3, 1)

    @pytest.mark.parametrize("n_spins", [0, -10])
    def test_asymptotic_rejects_n_below_one(self, n_spins):
        # N = -10 once gave 0.942, and N = 0 a ZeroDivisionError
        with pytest.raises(ValueError, match="need N >= 1"):
            fk_asymptotic(n_spins, 1)

    def test_asymptote_with_halfinteger_degree(self):
        # (1 - x_n) * 2 * (n + 1/2)^2 is an even tighter approach to xi0^2
        from spinrelay.legendre import BESSEL_J0_FIRST_ZERO
        n = 101  # N = 200
        nu = n + 0.5
        value = (1.0 - legendre_largest_zero(n)) * 2.0 * nu * nu
        assert abs(value - BESSEL_J0_FIRST_ZERO ** 2) / BESSEL_J0_FIRST_ZERO ** 2 < 0.02

    def test_chain_delta(self):
        # per-step shrink factors multiply along the chain
        x = optimal_tilde_delta(2)
        assert math.prod([parallel_tilde_delta(2), x, x]) == pytest.approx(
            analytic_delta("parallel_start", 2, 3), rel=1e-15)

    def test_monotonicity_in_size(self):
        opt = [optimal_tilde_delta(n) for n in range(2, 201, 2)]
        par = [parallel_tilde_delta(n) for n in range(1, 201)]
        assert all(a < b for a, b in zip(opt, opt[1:]))
        assert all(a < b for a, b in zip(par, par[1:]))
        for n, value in zip(range(2, 201, 2), opt):
            assert value > parallel_tilde_delta(n)

    def test_fidelity_decreases_in_k(self):
        for n in (2, 10):
            f_opt = [_fidelity("nspin_optimal", n, k) for k in range(1, 8)]
            f_par = [_fidelity("nspin_parallel", n, k) for k in range(1, 8)]
            assert all(a > b for a, b in zip(f_opt, f_opt[1:]))
            assert all(a > b for a, b in zip(f_par, f_par[1:]))
            assert all(0.5 < f <= 1.0 for f in f_opt + f_par)


class TestChainLaws:
    @pytest.mark.parametrize("mode, n_spins, phi", (
        [("single_qubit", 1, phi) for phi in (0.0, 0.7, math.pi)]
        + [("nspin_parallel", n, 0.0) for n in (1, 4, 10, 200)]
        + [(mode, n, 0.0) for mode in ("nspin_optimal", "parallel_start")
           for n in (2, 4, 10, 200)]))
    def test_analytic_delta_matches_inline_formulas(self, mode, n_spins, phi):
        # oracle: each mode's product law written out, with the optimal
        # factor taken from the dense eigensolver
        par = n_spins / (n_spins + 2.0)
        x = np.linalg.eigvalsh(jacobi_matrix(n_spins))[-1] if n_spins % 2 == 0 else None
        for k in (1, 2, 5):
            if mode == "single_qubit":
                expected = (math.cos(phi) / 3.0) ** (k - 1) / 3.0
            elif mode == "nspin_parallel":
                expected = par ** k
            elif mode == "nspin_optimal":
                expected = x ** k
            else:
                expected = par * x ** (k - 1)
            assert analytic_delta(mode, n_spins, k, phi) == pytest.approx(
                expected, rel=1e-14), f"k={k}"

    def test_analytic_delta_builds_no_density(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("analytic_delta built an outcome density")

        monkeypatch.setattr(encoding, "outcome_density", fail)
        for mode in ("nspin_optimal", "parallel_start"):
            assert 0.0 < analytic_delta(mode, 40, 3) < 1.0

    def test_steps(self):
        assert chain_laws("single_qubit", 1, 2, 0.7) == [("parallel", 0.7, 2)]
        assert chain_laws("nspin_parallel", 3, 2, 0.7) == [("parallel", 0.0, 2)]
        assert chain_laws("nspin_optimal", 4, 2) == [("optimal", 0.0, 2)]
        assert chain_laws("parallel_start", 4, 3) == [
            ("parallel", 0.0, 1), ("optimal", 0.0, 2)]
        assert chain_laws("parallel_start", 4, 1) == [("parallel", 0.0, 1)]

    @pytest.mark.parametrize("mode, n_spins, phi", [
        ("single_qubit", 1, 0.7), ("single_qubit", 1, math.pi), ("nspin_parallel", 5, 0.0),
        ("nspin_optimal", 40, 0.0), ("parallel_start", 40, 0.0)])
    def test_runs_give_the_step_list_product(self, mode, n_spins, phi):
        # oracle: one (law, offset) step per observer, equal steps
        # collected with Counter and raised to their count; observer k's
        # estimate follows k tilts and the k - 1 offsets before it
        for k in (1, 2, 3, 17, 1000):
            first = "parallel" if mode != "nspin_optimal" else "optimal"
            later = "optimal" if mode in ("nspin_optimal", "parallel_start") else "parallel"
            offset = phi if mode == "single_qubit" else 0.0
            steps = Counter([(first, offset)] + [(later, offset)] * (k - 1))
            means = {"parallel": n_spins / (n_spins + 2.0),
                     "optimal": optimal_tilde_delta(n_spins) if n_spins % 2 == 0 else None}
            tilts = math.prod(means[law] ** count for (law, _), count in steps.items())
            expected = tilts * math.cos(offset) ** (k - 1)
            assert analytic_delta(mode, n_spins, k, phi) == expected, f"k={k}"
            assert [(law, off) for law, off, _ in chain_laws(mode, n_spins, k, phi)] == list(steps)

    def test_long_chains_are_two_powers(self):
        k = 10 ** 15
        assert chain_laws("parallel_start", 10 ** 4, k) == [
            ("parallel", 0.0, 1), ("optimal", 0.0, k - 1)]
        x = optimal_tilde_delta(10 ** 4)
        assert analytic_delta("nspin_optimal", 10 ** 4, 10 ** 7) == x ** (10 ** 7) > 0.1
        assert analytic_delta("nspin_optimal", 2, k) == 0.0


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
            expected = npleg.legval(math.cos(theta), [0.0] * j + [1.0])
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
        assert quad == pytest.approx(float(enc.phi @ matrix @ enc.phi), abs=1e-10)
        assert density.mean_tilt() == pytest.approx(quad, abs=1e-10)

    def test_pdf_matches_direct_formula(self):
        enc = _random_encoding(8, 5)
        density = outcome_density(enc)
        xs = np.linspace(-1.0, 1.0, 23)
        degrees = np.arange(enc.phi.size)
        amp = npleg.legval(xs, np.sqrt(2 * degrees + 1.0) * enc.phi)
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

    def test_amplitude_at_angles_is_legval(self):
        # the recurrence on s = 1 - cos theta against numpy's Clenshaw sum
        gen = np.random.default_rng(4)
        theta = np.linspace(0.0, np.pi, 101)
        for size in (1, 2, 3, 40):
            series = gen.normal(size=size)
            np.testing.assert_allclose(
                encoding._amplitude_at_angles(series, theta),
                npleg.legval(np.cos(theta), series),
                rtol=0.0, atol=1e-12 * np.abs(series).sum())

    def test_survival_is_zero_at_x_one(self):
        # G(x = 1) = 1 - total mass: with g sampled at the rounded
        # abscissas cos(j pi / K) it was off by 2.7e-13, 3.0e-13 and 7.0e-13
        for n_spins in (224, 272, 1000):
            density = outcome_density(optimal_encoding(n_spins))
            assert abs(float(density._survival.sum())) <= 1e-13, f"N={n_spins}"

    def test_mean_tilt_of_optimal_is_largest_zero(self):
        for n in (2, 4, 40):
            density = outcome_density(optimal_encoding(n))
            assert density.mean_tilt() == pytest.approx(
                legendre_largest_zero(n // 2 + 1), abs=1e-11)


@pytest.fixture(scope="module")
def optimal_densities():
    """Optimal-encoding densities with their inverse-CDF tables built."""
    densities = {n: outcome_density(optimal_encoding(n))
                 for n in (2, 40, 280, 1000, 2000)}
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
        x = density.sample(RandomStream(97).generator(), 100_000)
        mean, se = _mean_se(x)
        assert abs(mean - target) < 3 * se

    def test_sample_range_and_empty(self):
        density = outcome_density(optimal_encoding(6))
        x = density.sample(RandomStream(3).generator(), 50_000)
        assert x.shape == (50_000,)
        assert np.all((-1.0 <= x) & (x <= 1.0))
        assert density.sample(RandomStream(3).generator(), 0).shape == (0,)

    def test_sample_ks_against_exact_cdf(self):
        # N = 280 puts the mass within ~1e-4 of x = 1
        for n_spins in (4, 280):
            density = outcome_density(optimal_encoding(n_spins))
            x = np.sort(density.sample(RandomStream(98).generator(), 100_000))
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
        table_g, table_theta, *_ = density._inverse_table
        frac = np.random.default_rng(n_spins).random(table_theta.size - 1)
        theta = table_theta[:-1] + frac * np.diff(table_theta)
        exact = 1.0 - density.cdf(np.cos(theta))
        gap = np.abs(np.interp(theta, table_theta, table_g) - exact)
        assert gap.max() <= encoding._TABLE_TOL

    @pytest.mark.parametrize("n_spins", [2, 40, 280, 1000])
    def test_sample_inverts_cdf_of_its_draw(self, optimal_densities, n_spins):
        # x = F^-1(u) for the stream's own uniform draw u, so a seed maps
        # to the same outcomes as under the exact inverse CDF
        density = optimal_densities[n_spins]
        u = RandomStream(7).generator().random(10_000)
        x = density.sample(RandomStream(7).generator(), 10_000)
        assert np.max(np.abs(density.cdf(x) - u)) <= encoding._TABLE_TOL

    @pytest.mark.parametrize("n_spins", [2, 40, 280, 1000])
    def test_table_mean_is_largest_zero(self, optimal_densities, n_spins):
        # theta is uniform on each table segment [a, b] with probability
        # dG, so the sampler's exact mean of cos(theta) is a finite sum
        table_g, table_theta, *_ = optimal_densities[n_spins]._inverse_table
        a, b = table_theta[:-1], table_theta[1:]
        mean = float(np.sum(np.diff(table_g) * (np.sin(b) - np.sin(a)) / (b - a)))
        assert mean == pytest.approx(optimal_tilde_delta(n_spins), abs=1e-6)

    def test_large_n_table_builds(self, optimal_densities):
        # the mass lies within ~1e-5 (N = 1000) and ~1e-7 (N = 10^4) of
        # x = 1: a uniform grid in x would need more than 2^21 knots.  Each
        # table is within _TABLE_TOL of the exact CDF at one random angle
        # per interval, and its draws' mean matches the largest zero
        for n_spins in (1000, 10 ** 4):
            density = optimal_densities.get(n_spins) or outcome_density(
                optimal_encoding(n_spins))
            table_g, table_theta, *_ = density._inverse_table
            frac = np.random.default_rng(n_spins).random(table_theta.size - 1)
            theta = table_theta[:-1] + frac * np.diff(table_theta)
            # in chunks that stay in cache: N = 10^4 has 2e5 intervals
            exact = np.concatenate([1.0 - density.cdf(np.cos(chunk))
                                    for chunk in np.array_split(theta, 16)])
            gap = np.abs(np.interp(theta, table_theta, table_g) - exact)
            assert gap.max() <= encoding._TABLE_TOL, f"N={n_spins}"
            x = density.sample(RandomStream(99).generator(), 10_000)
            assert np.all((-1.0 <= x) & (x <= 1.0))
            mean, se = _mean_se(x)
            assert abs(mean - optimal_tilde_delta(n_spins)) < 4 * se, f"N={n_spins}"


def _series_cdf(density):
    """Oracle: the CDF's Legendre series, the exact antiderivative from -1
    of the density's Legendre square."""
    amp = density.amplitude
    return npleg.legint(0.5 * npleg.legmul(amp, amp), lbnd=-1)


def _series_inverse_table(density):
    """Oracle: the table build that evaluates the CDF's Legendre series at
    every knot and midpoint, point by point, on the same grids and with the
    same refinement rule; returns (G, theta)."""
    cdf = _series_cdf(density)
    intervals = max(1024, 16 * (density.encoding.n_spins // 2 + 2))
    while True:
        # the knots (even points) and midpoints (odd points) of the grid
        exact = 1.0 - npleg.legval(np.cos(np.linspace(0.0, np.pi, 2 * intervals + 1)), cdf)
        exact[0], exact[-1] = 0.0, 1.0
        knots = np.minimum(1.0, np.maximum.accumulate(exact[::2]))
        gap = np.abs(exact[1::2] - 0.5 * (knots[:-1] + knots[1:]))
        if float(gap.max()) <= encoding._TABLE_TOL:
            break
        intervals *= 2
    keep = np.concatenate([[True], np.diff(knots) > 0.0])
    return knots[keep], np.linspace(0.0, np.pi, intervals + 1)[keep]


class TestInverseTableBuild:
    """The FFT-evaluated table against the CDF's Legendre series."""

    @pytest.mark.parametrize("n_spins", [2, 40, 280])
    def test_matches_series_build(self, optimal_densities, n_spins):
        density = optimal_densities[n_spins]
        table_g, table_theta, *_ = density._inverse_table
        oracle_g, oracle_theta = _series_inverse_table(density)
        assert np.array_equal(table_theta, oracle_theta)
        assert np.max(np.abs(table_g - oracle_g)) <= 1e-12

    @pytest.mark.parametrize("n_spins", [2, 40, 280, 1000, 2000])
    def test_knots_on_exact_survival(self, optimal_densities, n_spins):
        density = optimal_densities[n_spins]
        table_g, table_theta, *_ = density._inverse_table
        exact = 1.0 - npleg.legval(np.cos(table_theta), _series_cdf(density))
        assert np.max(np.abs(table_g - exact)) <= 1e-10


class TestGuideTableOracle:
    """The guide-table sampler against np.interp on the same table."""

    @pytest.mark.parametrize("n_spins", [2, 40, 280, 1000])
    def test_sample_is_interp_of_its_draw(self, optimal_densities, n_spins):
        density = optimal_densities[n_spins]
        table_g, table_theta, *_ = density._inverse_table
        u = RandomStream(n_spins).generator().random(10 ** 6)
        assert np.array_equal(density.sample(RandomStream(n_spins).generator(), 10 ** 6),
                              np.cos(np.interp(1.0 - u, table_g, table_theta)))

    @pytest.mark.parametrize("n_spins", [2, 40, 280, 1000])
    def test_lookup_at_knots_and_cell_edges(self, optimal_densities, n_spins):
        # q exactly at every knot and guide-cell edge, one ulp either side
        # of each, and the ends 0 and 1
        density = optimal_densities[n_spins]
        table_g, table_theta, *_ = density._inverse_table
        edges = np.arange(encoding._GUIDE_CELLS + 1) / encoding._GUIDE_CELLS
        points = np.concatenate([table_g, edges])
        q = np.concatenate([points, np.nextafter(points, -1.0), np.nextafter(points, 2.0)])
        q = np.clip(q, 0.0, 1.0)
        assert np.array_equal(density._tilt_angle(q.copy()),
                              np.interp(q, table_g, table_theta))


# ---------------------------------------------------------------------------
# Chains
# ---------------------------------------------------------------------------

class TestNspinChains:
    def test_validation(self):
        with pytest.raises(ValueError):
            chain_dots_nspin(3, 1, "nspin_optimal", RandomStream(1), 10)
        with pytest.raises(ValueError):
            chain_dots_nspin(0, 1, "nspin_parallel", RandomStream(1), 10)
        with pytest.raises(ValueError):
            chain_dots_nspin(2, 0, "nspin_optimal", RandomStream(1), 10)
        with pytest.raises(ValueError):
            chain_dots_nspin(2, 1, "entangled", RandomStream(1), 10)
        with pytest.raises(ValueError):
            chain_dots_nspin(2, 1, "nspin_parallel", RandomStream(1), 0)

    def test_single_spin_parallel_chain(self):
        # N = 1 parallel is exactly the single-qubit optimal chain: 1/27 at k=3
        dots = chain_dots_nspin(1, 3, "nspin_parallel", RandomStream(41), 300_000)
        mean, se = _mean_se(dots[:, 2])
        assert abs(mean - 1.0 / 27.0) < 3 * se

    def test_optimal_two_spin_chain(self):
        # two observers on the entangled pair: (1/sqrt(3))^2 = 1/3
        dots = chain_dots_nspin(2, 2, "nspin_optimal", RandomStream(42), 10 ** 6)
        mean, se = _mean_se(dots[:, 1])
        assert abs(mean - 1.0 / 3.0) < 3 * se

    def test_parallel_start_chain(self):
        dots = chain_dots_nspin(4, 2, "parallel_start", RandomStream(43), 200_000)
        mean, se = _mean_se(dots[:, 1])
        assert abs(mean - analytic_delta("parallel_start", 4, 2)) < 3 * se

    @pytest.mark.parametrize("n_spins", [2, 4, 10])
    def test_product_law_per_step_ratio(self, n_spins):
        # estimated delta_k / delta_{k-1} is compatible with the per-step
        # factor for k = 2..4 (delta method with per-trajectory covariance)
        dots = chain_dots_nspin(n_spins, 4, "nspin_optimal", RandomStream(44).child(n_spins),
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

    def test_density_built_once_and_only_for_valid_calls(self, monkeypatch):
        builds = []

        def counted(enc):
            builds.append(enc.n_spins)
            return outcome_density(enc)

        monkeypatch.setattr(encoding, "outcome_density", counted)
        with pytest.raises(TypeError, match="rng must be a RandomStream"):
            chain_dots_nspin(2000, 1, "nspin_optimal", 5, 10)
        with pytest.raises(ValueError, match="trials must be >= 1"):
            chain_dots_nspin(2000, 1, "nspin_optimal", RandomStream(5), 0)
        assert builds == []
        # one build for every block and step of a call
        monkeypatch.setattr(encoding, "_CHAIN_ROWS", 7)
        chain_dots_nspin(6, 3, "nspin_optimal", RandomStream(5), 26)
        chain_dots_nspin(6, 3, "parallel_start", RandomStream(5), 26)
        chain_dots_nspin(6, 3, "nspin_parallel", RandomStream(5), 26)
        assert builds == [6, 6]

    @pytest.mark.parametrize("chain", [chain_dots_nspin, chain_dots_3d])
    @pytest.mark.parametrize("mode, n_spins", [("single_qubit", 1), ("nspin_parallel", 6),
                                               ("nspin_optimal", 6), ("parallel_start", 6)])
    def test_overlap_checked_before_any_draw_or_build(self, monkeypatch, chain, mode, n_spins):
        # every argument is checked before any density build or generator:
        # the overlap, then the chain, then trials, then the stream
        overlap_msg = "overlap must be 'estimate' or 'prepared'"
        bad = [({"overlap": o}, ValueError, overlap_msg) for o in ("Prepared", "both", None)]
        bad += [({"overlap": "both", "k": 0, "trials": 0, "rng": 5}, ValueError, overlap_msg),
                ({"k": 0, "trials": 0, "rng": 5}, ValueError, "chain length must be >= 1"),
                ({"mode": "entangled", "trials": 0}, ValueError, "mode must be one of"),
                ({"trials": 0, "rng": 5}, ValueError, "trials must be >= 1, got 0"),
                ({"rng": 5}, TypeError, "rng must be a RandomStream, got int"),
                ({"rng": RandomStream(1).generator()}, TypeError, "rng must be a RandomStream")]
        if mode == "single_qubit":
            bad += [({"phi": phi}, ValueError, r"phi must lie in \[0, pi\]")
                    for phi in (-0.1, math.pi + 1e-9)]
        elif mode == "nspin_parallel":
            bad.append(({"n_spins": 0}, ValueError, "parallel mode needs N >= 1"))
        else:
            bad.append(({"n_spins": 7}, ValueError, "defined for even N >= 2, got N = 7"))
        good = {"n_spins": n_spins, "k": 2, "mode": mode, "rng": RandomStream(1),
                "trials": 10, "phi": 0.7, "overlap": "prepared"}
        work, generator = [], RandomStream.generator
        monkeypatch.setattr(encoding, "outcome_density",
                            lambda enc: work.append(enc.n_spins) or outcome_density(enc))
        monkeypatch.setattr(RandomStream, "generator",
                            lambda self: work.append("generator") or generator(self))
        for args, error, message in bad:
            with pytest.raises(error, match=message):
                chain(**{**good, **args})
        assert work == []
        chain(**good)
        assert "generator" in work

    def test_true_directions_are_skipped_not_drawn(self, monkeypatch):
        # per chunk, one tilt and one azimuth fill per observer are drawn;
        # the true directions' two fills are passed over by counter, so the
        # first tilt is the 3-D chain's, in chunks of odd and even rows
        drawn, generator = [], RandomStream.generator

        class Counted(np.random.Generator):
            def random(self, size):
                drawn[-1].append(size)
                return super().random(size)

        monkeypatch.setattr(RandomStream, "generator",
                            lambda self: drawn.append([]) or Counted(generator(self).bit_generator))
        monkeypatch.setattr(encoding, "_CHAIN_ROWS", 7)
        for trials, chunks in [(26, [7, 7, 7, 5]), (20, [7, 7, 6])]:
            drawn.clear()
            scalar = chain_dots_nspin(6, 3, "nspin_optimal", RandomStream(5), trials)
            assert drawn == [[rows] * 6 for rows in chunks]
            spatial = chain_dots_3d(6, 1, "nspin_optimal", RandomStream(5), trials)
            assert np.max(np.abs(scalar[:, 0] - spatial[:, 0])) <= 1e-13

    @pytest.mark.parametrize("rows", [1, 2, 3, 4, 5, 8, 9, 16])
    def test_skip_lands_on_the_tilt_fill(self, rows):
        # one chunk of any parity: advance(rows // 2) and random_raw(2 * (rows
        # % 2)) pass over the true directions' 2 * rows words exactly, so the
        # first tilt and azimuth are the 3-D chain's
        for mode, n_spins, phi in [("nspin_optimal", 6, 0.0), ("single_qubit", 1, 0.7)]:
            scalar = chain_dots_nspin(n_spins, 2, mode, RandomStream(rows), rows, phi)
            spatial = chain_dots_3d(n_spins, 1, mode, RandomStream(rows), rows, phi)
            assert np.max(np.abs(scalar[:, 0] - spatial[:, 0])) <= 1e-13, mode

    @pytest.mark.parametrize("chain", [chain_dots_nspin, chain_dots_3d])
    @pytest.mark.parametrize("mode, n_spins", [("single_qubit", 1), ("nspin_parallel", 4),
                                               ("nspin_optimal", 4), ("parallel_start", 4)])
    def test_first_columns_are_the_shorter_chain(self, chain, mode, n_spins):
        # each chunk draws its fills step by step from its own stream, so
        # the first j columns of a length-K chain are the length-j chain, bit
        # for bit, in every chunk; a sweep reads every k from one chain of
        # length max(k)
        trials = 2 * encoding._CHAIN_ROWS + 5
        for phi in (0.0, 0.7):
            for overlap in ("estimate", "prepared"):
                stream = RandomStream(47).child(n_spins)
                full = chain(n_spins, 3, mode, stream, trials, phi, overlap)
                for j in (1, 2):
                    np.testing.assert_array_equal(
                        full[:, :j], chain(n_spins, j, mode, stream, trials, phi, overlap),
                        err_msg=f"phi={phi}, {overlap}, j={j}")

    def test_chain_reproducible(self):
        a = chain_dots_nspin(2, 2, "nspin_optimal", RandomStream(45), 1000)
        b = chain_dots_nspin(2, 2, "nspin_optimal", RandomStream(45), 1000)
        np.testing.assert_array_equal(a, b)


class TestAzimuthCosine:
    """The table cosine of the scalar chain step against libm and a
    long-double oracle; the 3-D tilt_step keeps libm's cos and sin."""

    @staticmethod
    def _draws():
        # a million Philox draws, the cell edges and midpoints, where |h| is
        # largest, and both ends of [0, 1]
        edges = np.arange(encoding._AZIMUTH_CELLS + 1) / encoding._AZIMUTH_CELLS
        mids = (np.arange(encoding._AZIMUTH_CELLS) + 0.5) / encoding._AZIMUTH_CELLS
        return np.concatenate([RandomStream(16).generator().random(10 ** 6), edges, mids,
                               np.nextafter(mids, 0.0), [1.0 - 2.0 ** -53]])

    def test_matches_libm(self):
        u = self._draws()
        assert np.max(np.abs(encoding._cos_2pi(u.copy()) - np.cos(2.0 * np.pi * u))) <= 1e-15

    def test_matches_long_double_oracle(self):
        u = self._draws()
        two_pi = 2 * np.arccos(np.longdouble(-1.0))
        exact = np.cos(two_pi * u.astype(np.longdouble))
        err = np.abs(encoding._cos_2pi(u.copy()).astype(np.longdouble) - exact)
        # where long double is wider than double, the table beats libm's
        # 4.4e-16, which rounds 2 pi u first
        wider = np.finfo(np.longdouble).eps < np.finfo(float).eps
        assert float(err.max()) <= (3e-16 if wider else 1e-15)

    def test_cell_edges_are_the_table(self):
        u = np.arange(encoding._AZIMUTH_CELLS + 1) / encoding._AZIMUTH_CELLS
        np.testing.assert_array_equal(encoding._cos_2pi(u), encoding._AZIMUTH_COS)
        assert encoding._cos_2pi(np.zeros(1))[0] == 1.0
        assert encoding._AZIMUTH_COS[encoding._AZIMUTH_CELLS // 2] == -1.0


class TestScalarChainOracle:
    """The overlap recurrence of chain_dots_nspin against the 3-D chain of
    chain_dots_3d, its oracle."""

    MODES = ["nspin_parallel", "nspin_optimal", "parallel_start"]
    PHIS = [0.0, 0.7, math.pi / 2, math.pi]

    @staticmethod
    def _assert_same_law(scalar, spatial):
        # two-sample z of the means of P_1(c) and P_2(c) at every step
        for j in range(scalar.shape[1]):
            for degree in (1, 2):
                (m1, s1), (m2, s2) = (_mean_se(npleg.legval(dots[:, j], [0] * degree + [1]))
                                      for dots in (scalar, spatial))
                z = (m1 - m2) / math.hypot(s1, s2)
                assert abs(z) <= 4.0, (j + 1, degree, z)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("n_spins", [2, 10, 40])
    def test_first_column_on_the_same_stream(self, mode, n_spins):
        # 40000 trials run as three chunks, each on its own stream; the
        # later observers draw after column 1's fills, so they leave it alone
        scalar = chain_dots_nspin(n_spins, 3, mode, RandomStream(13), 40_000)
        spatial = chain_dots_3d(n_spins, 1, mode, RandomStream(13), 40_000)
        assert np.max(np.abs(scalar[:, 0] - spatial[:, 0])) <= 1e-13

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("n_spins", [2, 10, 40])
    def test_law_on_independent_streams(self, mode, n_spins):
        trials = 400_000
        stream = RandomStream(14).child(self.MODES.index(mode)).child(n_spins)
        scalar = chain_dots_nspin(n_spins, 3, mode, stream.child(0), trials)
        spatial = chain_dots_3d(n_spins, 3, mode, stream.child(1), trials)
        self._assert_same_law(scalar, spatial)

    @pytest.mark.parametrize("phi", PHIS)
    def test_single_qubit_first_column_on_the_same_stream(self, phi):
        scalar = chain_dots_nspin(1, 3, "single_qubit", RandomStream(13), 40_000, phi)
        spatial = chain_dots_3d(1, 1, "single_qubit", RandomStream(13), 40_000, phi)
        assert np.max(np.abs(scalar[:, 0] - spatial[:, 0])) <= 1e-13

    @pytest.mark.parametrize("phi", PHIS)
    @pytest.mark.parametrize("overlap", ["estimate", "prepared"])
    def test_single_qubit_law_on_independent_streams(self, phi, overlap):
        trials = 400_000
        stream = RandomStream(15).child(self.PHIS.index(phi)).child(int(overlap == "prepared"))
        scalar = chain_dots_nspin(1, 3, "single_qubit", stream.child(0), trials, phi, overlap)
        spatial = chain_dots_3d(1, 3, "single_qubit", stream.child(1), trials, phi, overlap)
        self._assert_same_law(scalar, spatial)

    @pytest.mark.parametrize("phi", [0.0, 0.7])
    @pytest.mark.parametrize("overlap", ["estimate", "prepared"])
    def test_stern_gerlach_law_on_independent_streams(self, phi, overlap):
        # the scalar Born-rule sampler against the 3-D random-axis
        # measurement, with criterion 3's two-sample z-gate on the means
        trials = 400_000
        stream = RandomStream(17).child(int(phi != 0.0)).child(int(overlap == "prepared"))
        scalar = chain_dots_nspin(1, 3, "single_qubit", stream.child(0), trials, phi, overlap,
                                  measure=stern_gerlach)
        spatial = chain_dots_3d(1, 3, "single_qubit", stream.child(1), trials, phi, overlap,
                                measure=chain3d.stern_gerlach)
        for j in range(3):
            (m1, s1), (m2, s2) = _mean_se(scalar[:, j]), _mean_se(spatial[:, j])
            z = (m1 - m2) / math.hypot(s1, s2)
            assert abs(z) <= 3.0, (j + 1, z)


class TestDrawLayout:
    """Pins the order of the Philox draws along a chain: the true
    directions, then per observer its tilt, its azimuth and any
    re-preparation azimuth, in chunks of 2^14 trials, each on its own
    stream.  Any change to that order or to the chunk size changes seeded
    sweep records, so these values may only change on purpose.  The
    covariant chains follow the overlap alone, so apart from the k = 1
    estimate their values are not the 3-D chain's."""

    SINGLE = {
        ("covariant", "estimate"): [
            [0.7332064707291475, 0.9719586678853365, 0.11816796330167878],
            [0.13562192680539104, 0.1447758478359669, -0.7098324222164488]],
        ("covariant", "prepared"): [
            [0.8137021931846677, 0.8601532843706645, 0.5291509581451963],
            [0.6980207314096682, 0.21025451479449686, -0.09280033054785725]],
        ("stern_gerlach", "estimate"): [
            [0.9801968986293141, 0.5817967277037516, -0.2273023046775164],
            [-0.36178692957970626, -0.0561207878206795, 0.06621784990867986]],
        ("stern_gerlach", "prepared"): [
            [0.8617527906958433, 0.2614382068973332, -0.6450513613288908],
            [-0.5018892302632862, 0.28442956004753206, -0.4210526047295486]],
        # the scalar kernel's Born-rule sampler: two fills per tilt, y and
        # the sign, after the skip of the true directions' two
        ("stern_gerlach_scalar", "estimate"): [
            [0.5020023350886931, 0.8767282576679929, 0.2810925822646397],
            [-0.3551814196794054, -0.5794620897408176, -0.6695076274414041]],
        ("stern_gerlach_scalar", "prepared"): [
            [0.8369567714504937, 0.847663539989309, -0.291802007914602],
            [-0.2318287245631308, -0.8502704961914771, -0.08002031246677738]],
    }
    NSPIN = {
        "nspin_parallel": [
            [0.9198370507758005, 0.7566677158815733, 0.8336595977131052],
            [0.7013846193821514, 0.6979241058571227, 0.6911162598661115]],
        "nspin_optimal": [
            [0.814183527251182, 0.8978084131209966, 0.838485989915627],
            [0.9437383298997482, 0.6355967055948138, 0.5790650582940305]],
        "parallel_start": [
            [0.9198370507758005, 0.9673632758111002, 0.7732189265309937],
            [0.7013846193821514, 0.49568682807679154, 0.47675824247863186]],
    }

    #: the first row of chunk 1, at row 2^14, on the stream's child(1), per
    #: (kernel, mode, overlap)
    CHUNK_ONE = {
        ("3d", "nspin_optimal", "estimate"):
            [0.9488785752604082, 0.9214981091430655, 0.6341753923880106],
        ("nspin", "nspin_optimal", "estimate"):
            [0.948878575260408, 0.870208278143912, 0.9013189602616937],
        ("nspin", "nspin_parallel", "estimate"):
            [0.6816666997403193, 0.8061247734722392, 0.8619032343759679],
        ("nspin", "parallel_start", "estimate"):
            [0.6816666997403193, 0.8408196238227694, 0.8883484886422501],
        ("nspin", "single_qubit", "estimate"):
            [0.09022150960566133, -0.9254064876742207, -0.7788163828429568],
        ("nspin", "single_qubit", "prepared"):
            [0.3489917043984563, -0.5678908219711771, -0.8785534008427949],
        ("stern_gerlach", "single_qubit", "prepared"):
            [0.3534376582322629, -0.8445581363394205, -0.2720460483254585],
        ("stern_gerlach_scalar", "single_qubit", "prepared"):
            [0.7082883786414325, -0.42970497900850024, -0.48799858108573835],
    }

    @pytest.mark.parametrize("scheme, overlap", sorted(SINGLE))
    def test_single_qubit_chain(self, scheme, overlap):
        if scheme == "covariant":
            dots = chain_dots_nspin(1, 3, "single_qubit", RandomStream(5), 2, 0.7, overlap)
        elif scheme == "stern_gerlach_scalar":
            dots = chain_dots_nspin(1, 3, "single_qubit", RandomStream(5), 2, 0.7, overlap,
                                    measure=stern_gerlach)
        else:
            dots = chain_dots_3d(1, 3, "single_qubit", RandomStream(5), 2, 0.7, overlap,
                                 chain3d.stern_gerlach)
        np.testing.assert_allclose(dots, self.SINGLE[scheme, overlap], rtol=1e-12)

    @pytest.mark.parametrize("mode", sorted(NSPIN))
    def test_nspin_chain(self, mode):
        dots = chain_dots_nspin(6, 3, mode, RandomStream(5), 2)
        np.testing.assert_allclose(dots, self.NSPIN[mode], rtol=1e-12)

    @pytest.mark.parametrize("kernel, mode, overlap", sorted(CHUNK_ONE))
    def test_chunk_one_row(self, kernel, mode, overlap):
        # a literal 2^14, so that a retune of _CHAIN_ROWS fails here
        chain = {"3d": chain_dots_3d, "nspin": chain_dots_nspin,
                 "stern_gerlach": partial(chain_dots_3d, measure=chain3d.stern_gerlach),
                 "stern_gerlach_scalar": partial(chain_dots_nspin, measure=stern_gerlach)}[kernel]
        n_spins, phi = (1, 0.7) if mode == "single_qubit" else (6, 0.0)
        dots = chain(n_spins, 3, mode, RandomStream(5), 2 ** 14 + 1, phi, overlap)
        np.testing.assert_allclose(dots[-1], self.CHUNK_ONE[kernel, mode, overlap], rtol=1e-12)

    def test_single_spin_parallel_is_single_qubit_chain(self):
        # one kernel drawing the N = 1 tilt law with the same draws in the same order
        s = RandomStream(9)
        np.testing.assert_array_equal(
            chain_dots_nspin(1, 3, "nspin_parallel", s, 1000),
            chain_dots_nspin(1, 3, "single_qubit", s, 1000))


# ---------------------------------------------------------------------------
# Thresholds
# ---------------------------------------------------------------------------

class TestClassicalThreshold:
    def test_single_observer_parallel(self):
        assert classical_threshold(1, 2.0 / 3.0, "nspin_parallel") == 1

    def test_threshold_is_minimal(self):
        for k, target, mode in [(4, 0.8, "nspin_parallel"), (16, 0.9, "nspin_optimal")]:
            n = classical_threshold(k, target, mode)
            step = 1 if mode == "nspin_parallel" else 2
            assert _fidelity(mode, n, k) >= target
            if n - step >= 1:
                assert _fidelity(mode, n - step, k) < target

    def test_optimal_needs_fewer_spins(self):
        for k in (4, 32, 128):
            for target in (0.75, 0.9):
                assert (classical_threshold(k, target, "nspin_optimal")
                        <= classical_threshold(k, target, "nspin_parallel"))

    def test_validation(self):
        with pytest.raises(ValueError):
            classical_threshold(0, 0.9, "nspin_parallel")
        with pytest.raises(ValueError):
            classical_threshold(1, 0.4, "nspin_parallel")
        with pytest.raises(ValueError):
            classical_threshold(1, 0.9, "sequential")

    def test_single_qubit_is_rejected_by_name(self, monkeypatch):
        # a single qubit has no ensemble size to search: the mode is named,
        # not an N the caller never gave, and no closed form is asked for
        asked = []
        monkeypatch.setattr(laws, "analytic_delta", lambda *args: asked.append(args))
        for k, target in [(2, 0.6), (1, 0.9)]:
            with pytest.raises(ValueError, match="^single_qubit mode has no ensemble size"):
                classical_threshold(k, target, "single_qubit")
        assert asked == []
        monkeypatch.undo()
        with pytest.raises(ValueError, match="^mode must be one of"):
            classical_threshold(2, 0.6, "sequential")
