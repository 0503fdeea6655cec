"""Single-qubit chain: closed forms, channel picture, observers, chains."""

from functools import partial
import math

import numpy as np
import numpy.polynomial.legendre as npleg
import pytest

from spinrelay.laws import analytic_delta, fidelity_from_delta
from spinrelay.qubit import disturbance_constant, eta_from_c, stern_gerlach
from spinrelay.rng import RandomStream

import chain3d
from chain3d import collected_3d as chain_dots_3d, collected_nspin as chain_dots_nspin

Z_HAT = np.array([0.0, 0.0, 1.0])


def _mean_se(samples):
    return samples.mean(), samples.std(ddof=1) / math.sqrt(samples.size)


def ket(v):
    """Spin-coherent state along unit vector v: (cos(t/2), e^{i p} sin(t/2))."""
    theta = math.acos(max(-1.0, min(1.0, v[2])))
    psi = math.atan2(v[1], v[0])
    return np.array([math.cos(theta / 2),
                     complex(math.cos(psi), math.sin(psi)) * math.sin(theta / 2)])


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

class TestFidelity:
    def test_from_delta(self):
        assert fidelity_from_delta(1.0 / 3.0) == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert fidelity_from_delta(0.0) == 0.5
        assert fidelity_from_delta(1.0) == 1.0
        with pytest.raises(ValueError):
            fidelity_from_delta(1.2)

    def test_nan_delta_is_rejected(self):
        with pytest.raises(ValueError, match="delta must lie in"):
            fidelity_from_delta(float("nan"))


class TestDisturbanceConstant:
    @pytest.mark.parametrize("phi,c", [(0.0, 2.0), (math.pi, 0.0), (math.pi / 2, 1.0)])
    def test_values(self, phi, c):
        assert disturbance_constant(phi) == pytest.approx(c, abs=1e-15)

    @pytest.mark.parametrize("phi", [0.0, 0.6, math.pi / 2, 2.4, math.pi])
    def test_quadrature_oracle(self, phi):
        # c = int dm |tr A(m)|^2 with A(m) = sqrt(2)|m_phi><m| evaluated from
        # actual spin-coherent kets on a product quadrature grid
        nodes, weights = npleg.leggauss(24)
        psis = np.linspace(0.0, 2 * math.pi, 48, endpoint=False)
        total = 0.0
        for ct, w in zip(nodes, weights):
            st = math.sqrt(1.0 - ct * ct)
            for psi in psis:
                m = np.array([st * math.cos(psi), st * math.sin(psi), ct])
                e_theta = np.array([ct * math.cos(psi), ct * math.sin(psi), -st])
                m_tilted = math.cos(phi) * m + math.sin(phi) * e_theta
                amp = math.sqrt(2.0) * np.vdot(ket(m), ket(m_tilted))
                total += w * abs(amp) ** 2 / (2.0 * len(psis))
        assert disturbance_constant(phi) == pytest.approx(total, abs=1e-12)

    def test_povm_completeness_oracle(self):
        # int dm 2|m><m| = identity, same grid
        nodes, weights = npleg.leggauss(24)
        psis = np.linspace(0.0, 2 * math.pi, 48, endpoint=False)
        acc = np.zeros((2, 2), dtype=complex)
        for ct, w in zip(nodes, weights):
            st = math.sqrt(1.0 - ct * ct)
            for psi in psis:
                k = ket([st * math.cos(psi), st * math.sin(psi), ct])
                acc += w * 2.0 * np.outer(k, k.conj()) / (2.0 * len(psis))
        np.testing.assert_allclose(acc, np.eye(2), atol=1e-12)


class TestChannel:
    def test_eta_endpoints(self):
        assert eta_from_c(2.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert eta_from_c(1.0) == 0.0
        assert eta_from_c(0.0) == pytest.approx(-1.0 / 3.0, abs=1e-15)
        for bad in (-0.1, 2.1):
            with pytest.raises(ValueError):
                eta_from_c(bad)

    def test_analytic_fk(self):
        def fk(k):
            return fidelity_from_delta(analytic_delta("single_qubit", 1, k))
        assert fk(1) == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert fk(2) == pytest.approx(5.0 / 9.0, abs=1e-15)
        assert fk(400) == pytest.approx(0.5, abs=1e-15)
        with pytest.raises(ValueError):
            fk(0)


class TestKrausFamily:
    def test_angle_range(self):
        # the offset angle phi lies in [0, pi], for the closed form and the chains
        for phi in (-0.1, 3.5, float("nan")):
            with pytest.raises(ValueError, match="phi must lie in"):
                disturbance_constant(phi)
            for chain in (chain_dots_nspin, chain_dots_3d):
                with pytest.raises(ValueError, match="phi must lie in"):
                    chain(1, 2, "single_qubit", RandomStream(1), 10, phi)


# ---------------------------------------------------------------------------
# Observers
# ---------------------------------------------------------------------------

def _sg_on_z(rows, seed):
    """Stern-Gerlach estimates of ``rows`` +z states."""
    return chain3d.stern_gerlach(np.tile(Z_HAT, (rows, 1)), RandomStream(seed).generator())


class TestObservers:
    """One observer's estimate and hand-on, seen through the chains'
    overlaps, and the Stern-Gerlach measurement on its own."""

    @staticmethod
    def _both(chain, phi, k=1, trials=1000, seed=3):
        return [chain(1, k, "single_qubit", RandomStream(seed), trials, phi, overlap)
                for overlap in ("estimate", "prepared")]

    def test_covariant_identity_prepare(self):
        # in every mode a zero offset hands on the estimate itself and draws
        # nothing more, on both kernels, covariant or Stern-Gerlach
        kernels = (chain_dots_3d, chain_dots_nspin,
                   partial(chain_dots_3d, measure=chain3d.stern_gerlach),
                   partial(chain_dots_nspin, measure=stern_gerlach))
        for mode, n_spins in (("single_qubit", 1), ("nspin_parallel", 3),
                              ("nspin_optimal", 4), ("parallel_start", 4)):
            for chain in kernels:
                est, prep = (chain(n_spins, 3, mode, RandomStream(3), 1000, 0.0, overlap)
                             for overlap in ("estimate", "prepared"))
                np.testing.assert_array_equal(prep, est, err_msg=mode)

    def test_covariant_worst_prepare_flips(self):
        for chain in (chain_dots_3d, chain_dots_nspin):
            est, prep = self._both(chain, math.pi)
            np.testing.assert_allclose(prep, -est, rtol=0, atol=1e-12)

    def test_covariant_offset_tilt(self):
        # the handed-on state sits at angle phi from the estimate, so its
        # overlap is c cos(phi) + sqrt(1 - c^2) sin(phi) cos(psi)
        phi = 1.1
        est, prep = self._both(chain_dots_3d, phi)
        assert np.all(np.abs(prep - est * math.cos(phi))
                      <= math.sin(phi) * np.sqrt(np.maximum(0.0, 1.0 - est * est)) + 1e-12)

    def test_covariant_estimate_mean(self):
        dots = chain_dots_3d(1, 1, "single_qubit", RandomStream(12), 100_000)
        mean, se = _mean_se(dots[:, 0])
        assert abs(mean - 1.0 / 3.0) < 3 * se

    def test_sg_estimate_mean(self):
        est = _sg_on_z(100_000, 13)
        mean, se = _mean_se(est[:, 2])
        assert abs(mean - 1.0 / 3.0) < 3 * se

    def test_sg_prepared_mean_is_depolarized_state(self):
        # average posterior equals the shrunk Bloch vector (0, 0, 1/3)
        est = _sg_on_z(100_000, 14)
        target = Z_HAT / 3.0
        for axis in range(3):
            mean, se = _mean_se(est[:, axis])
            band = max(3 * se, 1e-12)
            assert abs(mean - target[axis]) < band, f"component {axis}"

    def test_sg_aligned_axis_forces_plus(self, monkeypatch):
        # when the random axis coincides with the state the outcome is + surely
        monkeypatch.setattr(chain3d, "sample_uniform_sphere",
                            lambda gen, size=None: np.tile(Z_HAT, (size, 1)))
        gen = RandomStream(15).generator()
        est = chain3d.stern_gerlach(np.tile(Z_HAT, (500, 1)), gen)
        np.testing.assert_array_equal(est, np.tile(Z_HAT, (500, 1)))


class TestSternGerlachSampler:
    """The scalar Stern-Gerlach sampler: the tilt cosine x = s y of a random
    axis at overlap y = 2u - 1 with the state, signed s = +1 by the Born rule."""

    def test_born_rule_on_given_fills(self):
        # the first fill gives y, the second the sign: + when u < (1 + y)/2
        class Fills:
            def __init__(self, *fills):
                self.fills = list(fills)

            def random(self, size):
                return np.array(self.fills.pop(0))[:size]

        gen = Fills([0.75, 0.25, 0.75, 0.0, 1.0 - 2.0 ** -53], [0.6, 0.9, 0.75, 0.0, 0.5])
        x = stern_gerlach(gen, 5)
        np.testing.assert_array_equal(x, [0.5, 0.5, -0.5, 1.0, 1.0 - 2.0 ** -52])
        assert gen.fills == []

    def test_law(self):
        # density (1 + x)/2, the N = 1 tilt law: mean 1/3 and P(x < 0) = 1/4
        x = stern_gerlach(RandomStream(34).generator(), 10 ** 6)
        mean, se = _mean_se(x)
        assert abs(mean - 1.0 / 3.0) < 3 * se
        below = np.mean(x < 0.0)
        assert abs(below - 0.25) < 3 * math.sqrt(0.25 * 0.75 / x.size)
        assert np.all(np.abs(x) <= 1.0)


# ---------------------------------------------------------------------------
# Chains
# ---------------------------------------------------------------------------

class TestChainStructure:
    def test_reproducible(self):
        a = chain_dots_nspin(1, 2, "single_qubit", RandomStream(6), 100, 0.4)
        b = chain_dots_nspin(1, 2, "single_qubit", RandomStream(6), 100, 0.4)
        np.testing.assert_array_equal(a, b)

    def test_validation(self):
        # the chain length is chain_laws' to check, for either measurement
        for measure in (None, chain3d.stern_gerlach):
            with pytest.raises(ValueError, match="chain length must be >= 1"):
                chain_dots_3d(1, 0, "single_qubit", RandomStream(1), 100, measure=measure)
        for measure in (None, stern_gerlach):
            with pytest.raises(ValueError, match="chain length must be >= 1"):
                chain_dots_nspin(1, 0, "single_qubit", RandomStream(1), 100, measure=measure)
        with pytest.raises(ValueError, match="single_qubit mode runs at N = 1 only"):
            chain_dots_nspin(2, 1, "single_qubit", RandomStream(1), 100)
        with pytest.raises(ValueError, match="overlap must be"):
            chain_dots_nspin(1, 1, "single_qubit", RandomStream(1), 100, overlap="both")


class TestChainStatistics:
    def test_first_observer(self):
        dots = chain_dots_nspin(1, 1, "single_qubit", RandomStream(21), 100_000)
        mean, se = _mean_se(dots[:, 0])
        assert abs(mean - 1.0 / 3.0) < 3 * se

    def test_third_observer_megarun(self):
        dots = chain_dots_nspin(1, 3, "single_qubit", RandomStream(22), 10 ** 6)
        mean, se = _mean_se(dots[:, 2])
        assert abs(mean - 1.0 / 27.0) < 3 * se

    def test_estimate_overlap_on_phi_grid(self):
        # observer k measures the state handed on k - 1 times: (1/3) (cos(phi)/3)^(k-1);
        # at phi = pi the estimate of observer 2 anti-correlates, (1/3) (-1/3)
        for i, phi in enumerate((math.pi / 4, math.pi / 2, math.pi)):
            dots = chain_dots_nspin(1, 3, "single_qubit", RandomStream(23).child(i), 200_000,
                                    phi)
            for k in range(1, 4):
                mean, se = _mean_se(dots[:, k - 1])
                ref = (math.cos(phi) / 3.0) ** (k - 1) / 3.0
                assert abs(mean - ref) < 3 * se, f"phi={phi:.3f}, k={k}"

    def test_worst_case_channel_overlap(self):
        # the state handed on after two observers has shrunk by (-1/3)^2 = +1/9
        dots = chain_dots_nspin(1, 2, "single_qubit", RandomStream(23), 200_000, math.pi,
                                "prepared")
        mean, se = _mean_se(dots[:, 1])
        ref = eta_from_c(disturbance_constant(math.pi)) ** 2  # eta = -1/3
        assert ref == pytest.approx(1.0 / 9.0, abs=1e-15)
        assert abs(mean - ref) < 3 * se

    def test_channel_overlap_matches_eta_power_on_phi_grid(self):
        # MC channel shrink vs (cos(phi)/3)^k for 8 offsets, k = 1..4
        for i, phi in enumerate(np.linspace(0.0, math.pi, 8)):
            eta = eta_from_c(disturbance_constant(phi))
            assert eta == pytest.approx(math.cos(phi) / 3.0, abs=1e-15)
            dots = chain_dots_nspin(1, 4, "single_qubit", RandomStream(42).child(i), 100_000,
                                    phi, "prepared")
            for k in range(1, 5):
                mean, se = _mean_se(dots[:, k - 1])
                assert abs(mean - eta ** k) < 3 * se, f"phi={phi:.3f}, k={k}"

    def test_scheme_equivalence(self):
        cov = chain_dots_nspin(1, 4, "single_qubit", RandomStream(31), 100_000)
        sg = chain_dots_3d(1, 4, "single_qubit", RandomStream(32), 100_000,
                           measure=chain3d.stern_gerlach)
        for k in range(1, 5):
            m1, s1 = _mean_se(cov[:, k - 1])
            m2, s2 = _mean_se(sg[:, k - 1])
            z = (m1 - m2) / math.hypot(s1, s2)
            assert abs(z) <= 3.0, f"k={k}: SG and covariant disagree, z={z:+.2f}"

    def test_dots_and_fidelities_in_range(self):
        for chain in (chain_dots_nspin, partial(chain_dots_nspin, measure=stern_gerlach),
                      partial(chain_dots_3d, measure=chain3d.stern_gerlach)):
            for phi in (0.0, 2.0):
                dots = chain(1, 3, "single_qubit", RandomStream(33), 5000, phi)
                assert np.all(np.abs(dots) <= 1.0 + 1e-12)
                for k in range(3):
                    f = fidelity_from_delta(float(np.clip(dots[:, k].mean(), -1, 1)))
                    assert 0.0 <= f <= 1.0
