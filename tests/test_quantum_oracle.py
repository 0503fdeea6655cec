"""Quantum-level oracle of the tilt densities, from dense spin matrices.

The covariant measurement of an N-spin state psi has the seed
Phi = sum_J sqrt(2J+1) Pi_J psi / |Pi_J psi|, one unit vector per
total-spin block J scaled by sqrt(2J+1), and an outcome at tilt theta from
the encoded axis z has density |<psi| exp(-i theta S_y) |Phi>|^2 / 2 in
x = cos theta, for a psi that S_z only multiplies by a phase.  Here every
operator is a dense matrix on (C^2)^(x N): the collective spin, the J-block
projectors from eigh of S^2 and the rotation from eigh of S_y, with none of
the library's Legendre series or closed forms.  The measurement is complete:
the sphere average of (2J+1) U |Phi_J><Phi_J| U^dagger, summed over an
orthonormal basis Phi_J of the block's copies of spin J, is its projector.
"""

import numpy as np
import numpy.polynomial.legendre as npleg
import pytest

from spinrelay.encoding import EncodingSpec, optimal_encoding, outcome_density
from spinrelay.laws import optimal_tilde_delta

#: Gauss-Legendre nodes in x = cos theta at which the densities are compared
X_NODES = npleg.leggauss(12)[0]


class CollectiveSpin:
    """S_x, S_y, S_z of N <= 8 spin-1/2 systems, basis |0> = spin up."""

    def __init__(self, n_spins: int):
        assert 1 <= n_spins <= 8
        half = [np.array([[0, 1], [1, 0]]) / 2, np.array([[0, -1j], [1j, 0]]) / 2,
                np.diag([0.5, -0.5])]
        dim = 2 ** n_spins
        self.sx, self.sy, self.sz = (
            sum(np.kron(np.kron(np.eye(2 ** i), s), np.eye(dim // 2 ** (i + 1)))
                for i in range(n_spins))
            for s in half)
        s2 = self.sx @ self.sx + self.sy @ self.sy + self.sz @ self.sz
        values, vectors = np.linalg.eigh(s2)
        # S^2 = J(J+1): J from the eigenvalue, rounded to a half-integer
        j_of = np.rint(2 * (np.sqrt(values + 0.25) - 0.5)) / 2
        self.projectors = {j: vectors[:, j_of == j] @ vectors[:, j_of == j].conj().T
                           for j in np.unique(j_of)}
        self._sy_values, self._sy_vectors = np.linalg.eigh(self.sy)

    def rotation(self, theta: float, azimuth: float = 0.0) -> np.ndarray:
        """exp(-i azimuth S_z) exp(-i theta S_y), the turn of z-hat to the
        direction (theta, azimuth), from the eigenpairs of S_y."""
        v = self._sy_vectors
        turn_z = np.exp(-1j * azimuth * np.diag(self.sz))[:, None]
        return turn_z * ((v * np.exp(-1j * theta * self._sy_values)) @ v.conj().T)

    def seed(self, psi: np.ndarray) -> np.ndarray:
        """Phi = sum_J sqrt(2J+1) Pi_J psi / |Pi_J psi| over the blocks psi reaches."""
        phi = np.zeros_like(psi)
        for j, proj in self.projectors.items():
            part = proj @ psi
            norm = np.linalg.norm(part)
            if norm > 1e-12:
                phi += np.sqrt(2 * j + 1) * part / norm
        return phi

    def tilt_density(self, psi: np.ndarray, x: np.ndarray) -> np.ndarray:
        """|<psi| exp(-i theta S_y) |Phi>|^2 / 2 at x = cos theta."""
        phi = self.seed(psi)
        return np.array([abs(psi.conj() @ self.rotation(np.arccos(c)) @ phi) ** 2 / 2
                         for c in x])

    def copies(self, j: float, m: float) -> np.ndarray:
        """Orthonormal columns |J, m, c>, one per copy c of spin J: the
        block's S_z = m subspace."""
        on_m = np.flatnonzero(np.diag(self.sz) == m)
        values, vectors = np.linalg.eigh(self.projectors[j][np.ix_(on_m, on_m)])
        basis = np.zeros((self.sz.shape[0], np.count_nonzero(values > 0.5)), dtype=complex)
        basis[on_m] = vectors[:, values > 0.5]
        return basis

    def zero_projection_state(self, j: float, rng) -> np.ndarray:
        """A unit |J, 0> in block J: a random vector projected onto
        S^2 = J(J+1), S_z = 0, where block J may hold several copies."""
        on_zero = np.diag(self.sz) == 0.0
        v = self.projectors[j] @ np.where(on_zero, rng.standard_normal(on_zero.size), 0.0)
        return v / np.linalg.norm(v)


class TestTiltDensityOracle:
    """The dense-matrix density against the tilt laws the chains draw."""

    @pytest.mark.parametrize("n_spins", range(1, 9))
    def test_parallel_copies(self, n_spins):
        # |up...up> lies in the J = N/2 block: (N+1)/2 ((1+x)/2)^N, the law
        # the parallel modes draw and, at N = 1, the single_qubit mode
        spin = CollectiveSpin(n_spins)
        up = np.zeros(2 ** n_spins, dtype=complex)
        up[0] = 1.0
        expected = (n_spins + 1) / 2 * ((1 + X_NODES) / 2) ** n_spins
        np.testing.assert_allclose(spin.tilt_density(up, X_NODES), expected,
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n_spins", [2, 4, 6])
    def test_optimal_encoding(self, n_spins):
        # sum_J phi_J |J, 0> with any unit |J, 0> per block reads the library's density
        spin = CollectiveSpin(n_spins)
        rng = np.random.default_rng(n_spins)
        psi = sum(c * spin.zero_projection_state(j, rng)
                  for j, c in enumerate(optimal_encoding(n_spins).phi))
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
        expected = outcome_density(optimal_encoding(n_spins)).pdf(X_NODES)
        np.testing.assert_allclose(spin.tilt_density(psi, X_NODES), expected,
                                   rtol=0, atol=1e-12)

    @staticmethod
    def _antiparallel(spin, n_spins):
        # |up>^(N/2) |down>^(N/2): S_z = 0, and its encoding phi_J = |Pi_J psi|
        psi = np.zeros(2 ** n_spins, dtype=complex)
        psi[2 ** (n_spins // 2) - 1] = 1.0
        phi = [np.linalg.norm(spin.projectors[j] @ psi) for j in range(n_spins // 2 + 1)]
        return psi, outcome_density(EncodingSpec(n_spins, np.array(phi)))

    @pytest.mark.parametrize("n_spins", [2, 4, 6])
    def test_antiparallel_pairs(self, n_spins):
        spin = CollectiveSpin(n_spins)
        psi, density = self._antiparallel(spin, n_spins)
        np.testing.assert_allclose(spin.tilt_density(psi, X_NODES), density.pdf(X_NODES),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n_spins, mean", [(2, optimal_tilde_delta(2)), (4, 0.769547)])
    def test_antiparallel_mean_tilt(self, n_spins, mean):
        # at N = 2 the pair is the optimal encoding (Gisin-Popescu), mean 1/sqrt(3)
        _, density = self._antiparallel(CollectiveSpin(n_spins), n_spins)
        assert density.mean_tilt() == pytest.approx(mean, abs=1e-12 if n_spins == 2 else 5e-7)

    @pytest.mark.parametrize("n_spins", range(1, 5))
    def test_povm_completeness(self, n_spins):
        # the sphere average of (2J+1) sum_c U |J, m, c><J, m, c| U^dagger is
        # Pi_J; its entries are polynomials of degree 2J in cos theta times
        # e^(i k azimuth), |k| <= 2J, which 8 Gauss nodes and 16 azimuths
        # integrate exactly, up to rounding
        spin = CollectiveSpin(n_spins)
        nodes, weights = npleg.leggauss(8)
        azimuths = 2 * np.pi * np.arange(16) / 16
        for j, projector in spin.projectors.items():
            seeds = spin.copies(j, j % 1)
            average = np.zeros_like(projector)
            for x, weight in zip(nodes, weights):
                for azimuth in azimuths:
                    turned = spin.rotation(np.arccos(x), azimuth) @ seeds
                    average += weight / (2 * azimuths.size) * (turned @ turned.conj().T)
            np.testing.assert_allclose((2 * j + 1) * average, projector, rtol=0, atol=1e-12)
