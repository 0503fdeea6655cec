"""Quantum-level oracle of the tilt densities, from dense spin matrices.

The covariant measurement of an N-spin state psi has the seed
Phi = sum_J sqrt(2J+1) Pi_J psi / |Pi_J psi|, one unit vector per
total-spin block J scaled by sqrt(2J+1), and an outcome at tilt theta from
the encoded axis z has density |<psi| exp(-i theta S_y) |Phi>|^2 / 2 in
x = cos theta, for a psi that S_z only multiplies by a phase.  Here every
operator is a dense matrix on (C^2)^(x N): the collective spin, the J-block
projectors from eigh of S^2 and the rotation from eigh of S_y, with none of
the library's Legendre series or closed forms.
"""

import numpy as np
import numpy.polynomial.legendre as npleg
import pytest

from spinrelay.encoding import optimal_encoding, outcome_density

#: Gauss-Legendre nodes in x = cos theta at which the densities are compared
X_NODES = npleg.leggauss(12)[0]


class CollectiveSpin:
    """S_x, S_y, S_z of N <= 6 spin-1/2 systems, basis |0> = spin up."""

    def __init__(self, n_spins: int):
        assert 1 <= n_spins <= 6
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

    def rotation(self, theta: float) -> np.ndarray:
        """exp(-i theta S_y), from the eigenpairs of S_y."""
        v = self._sy_vectors
        return (v * np.exp(-1j * theta * self._sy_values)) @ v.conj().T

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

    def zero_projection_state(self, j: float, rng) -> np.ndarray:
        """A unit |J, 0> in block J: a random vector projected onto
        S^2 = J(J+1), S_z = 0, where block J may hold several copies."""
        on_zero = np.diag(self.sz) == 0.0
        v = self.projectors[j] @ np.where(on_zero, rng.standard_normal(on_zero.size), 0.0)
        return v / np.linalg.norm(v)


class TestTiltDensityOracle:
    """The dense-matrix density against the tilt laws the chains draw."""

    @pytest.mark.parametrize("n_spins", range(1, 7))
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
