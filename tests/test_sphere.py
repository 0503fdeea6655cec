"""Sphere sampling laws and the tilt-rotation primitive."""

import re
import tracemalloc

import numpy as np
import pytest

from spinrelay import sphere
from spinrelay.encoding import chain_dots_nspin, chain_observers
from spinrelay.qubit import QubitKrausFamily, chain_dots_single
from spinrelay.rng import RandomStream
from spinrelay.sphere import (
    UNIT_TOL,
    inverse_cdf_cos_tilt,
    observer_chain,
    require_unit,
    rotate_towards,
    row_dot,
    sample_cos_tilt,
    sample_uniform_sphere,
    unit_vector,
)

# one-sample Kolmogorov-Smirnov critical value at the 1% level
KS_CRIT_1PCT = 1.62762


def test_unit_vector_normalizes():
    v = unit_vector(3.0, 0.0, 4.0)
    np.testing.assert_allclose(v, [0.6, 0.0, 0.8], atol=1e-15)
    with pytest.raises(ValueError):
        unit_vector(0.0, 0.0, 0.0)


def test_require_unit_rejects():
    with pytest.raises(ValueError):
        require_unit([1.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        require_unit([1.0, 0.0])


class TestUniformSphere:
    def test_unit_norm(self):
        v = sample_uniform_sphere(RandomStream(1), 10_000)
        np.testing.assert_allclose(np.linalg.norm(v, axis=-1), 1.0, atol=1e-12)

    def test_scalar_shape(self):
        v = sample_uniform_sphere(RandomStream(1))
        assert v.shape == (3,)

    def test_first_moment(self):
        # each component has mean 0; analytic 3-sigma is ~0.0055 at 1e5
        v = sample_uniform_sphere(RandomStream(314), 100_000)
        assert np.all(np.abs(v.mean(axis=0)) < 0.01)

    def test_second_moment(self):
        # int z^2 dn = 1/3 by direct integration
        v = sample_uniform_sphere(RandomStream(314), 100_000)
        assert abs(np.mean(v[:, 2] ** 2) - 1.0 / 3.0) < 0.01


class TestCosTilt:
    def test_inverse_cdf_endpoints(self):
        assert inverse_cdf_cos_tilt(1.0, 1) == 1.0
        assert inverse_cdf_cos_tilt(0.0, 3) == -1.0
        assert inverse_cdf_cos_tilt(1.0, 50) == 1.0

    def test_rejects_no_copies(self):
        with pytest.raises(ValueError):
            sample_cos_tilt(RandomStream(0), 0)
        with pytest.raises(ValueError):
            inverse_cdf_cos_tilt(0.5, 0)

    @pytest.mark.parametrize("n_copies,mean", [(1, 1.0 / 3.0), (4, 4.0 / 6.0)])
    def test_mean(self, n_copies, mean):
        x = sample_cos_tilt(RandomStream(2718), n_copies, 100_000)
        se = x.std(ddof=1) / np.sqrt(x.size)
        assert abs(x.mean() - mean) < 3 * se, (
            f"N={n_copies}: mean {x.mean():.5f} vs {mean:.5f} (3se={3*se:.5f})")

    def test_range(self):
        x = sample_cos_tilt(RandomStream(3), 10_000)
        assert np.all((-1.0 <= x) & (x <= 1.0))

    @pytest.mark.parametrize("n_copies", [1, 4])
    def test_ks_against_analytic_cdf(self, n_copies):
        x = np.sort(sample_cos_tilt(RandomStream(2718), n_copies, 100_000))
        cdf = ((1.0 + x) / 2.0) ** (n_copies + 1)
        n = x.size
        ks = max(np.max(np.abs(np.arange(1, n + 1) / n - cdf)),
                 np.max(np.abs(np.arange(0, n) / n - cdf)))
        assert ks < KS_CRIT_1PCT / np.sqrt(n), f"KS={ks:.5f} beyond 1% critical value"


class TestRotateTowards:
    def test_tilt_one_returns_axis(self):
        axis = unit_vector(0.3, -0.5, 0.7)
        np.testing.assert_allclose(rotate_towards(axis, 1.0, 2.1), axis, atol=1e-12)

    def test_tilt_minus_one_flips(self):
        axis = unit_vector(0.3, -0.5, 0.7)
        np.testing.assert_allclose(rotate_towards(axis, -1.0, 0.4), -axis, atol=1e-12)

    def test_equator(self):
        out = rotate_towards(np.array([0.0, 0.0, 1.0]), 0.0, 0.0)
        assert abs(out[2]) < 1e-12
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12

    def test_random_inputs_preserve_contract(self):
        gen = RandomStream(77).generator()
        axes = sample_uniform_sphere(gen, 10_000)
        tilts = gen.uniform(-1.0, 1.0, 10_000)
        azimuths = gen.uniform(0.0, 2 * np.pi, 10_000)
        out = rotate_towards(axes, tilts, azimuths)
        np.testing.assert_allclose(np.linalg.norm(out, axis=-1), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.sum(out * axes, axis=-1), tilts, atol=1e-12)

    def test_axis_near_x_uses_fallback_frame(self):
        for axis in ([1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]):
            out = rotate_towards(np.array(axis), 0.25, 1.0)
            assert abs(np.linalg.norm(out) - 1.0) < 1e-12
            assert abs(out @ np.array(axis) - 0.25) < 1e-12

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            rotate_towards(np.array([1.0, 1.0, 0.0]), 0.5, 0.0)
        with pytest.raises(ValueError):
            rotate_towards(np.array([0.0, 0.0, 1.0]), 1.5, 0.0)


def _rotate_reference(axis, cos_tilt, azimuth):
    """The (..., 3) formula the column-wise kernel replaced: the oracle
    that kernel must match bit for bit."""
    a = np.asarray(axis, dtype=float)
    if a.shape[-1] != 3:
        raise ValueError(f"axis must have 3 components, got shape {a.shape}")
    norms = np.linalg.norm(a, axis=-1)
    if not np.all(np.abs(norms - 1.0) <= 1e-9):
        worst = float(np.max(np.abs(norms - 1.0)))
        raise ValueError(f"axis is not unit-norm (max |norm-1| = {worst:.3e})")
    x = np.asarray(cos_tilt, dtype=float)
    if np.any(np.abs(x) > 1.0 + UNIT_TOL):
        raise ValueError("cos_tilt must lie in [-1, 1]")
    x = np.clip(x, -1.0, 1.0)
    psi = np.asarray(azimuth, dtype=float)

    near_x = np.abs(a[..., 0]) > 1.0 - 1e-6
    ref = np.where(near_x[..., None],
                   np.array([0.0, 1.0, 0.0]),
                   np.array([1.0, 0.0, 0.0]))
    e1 = ref - np.sum(ref * a, axis=-1, keepdims=True) * a
    e1 = e1 / np.linalg.norm(e1, axis=-1, keepdims=True)
    e2 = np.cross(a, e1)

    s = np.sqrt(np.maximum(0.0, 1.0 - x * x))
    return (x[..., None] * a
            + (s * np.cos(psi))[..., None] * e1
            + (s * np.sin(psi))[..., None] * e2)


def _column_major(v):
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(v, -1, 0)), 0, -1)


def _near_x_rows():
    """Unit rows whose |a_x| sits just above and just below 1 - 1e-6,
    where the kernel switches its reference axis."""
    rows = []
    for ax in (1.0 - 1e-6 + 1e-9, 1.0 - 1e-6 - 1e-9, 1.0 - 1e-6 + 1e-12, 1.0 - 1e-6 - 1e-12):
        for sign in (1.0, -1.0):
            rest = np.sqrt(1.0 - ax * ax)
            rows.append(unit_vector(sign * ax, 0.6 * rest, -0.8 * rest))
    return np.array(rows)


class TestKernelOracle:
    """The column-wise rotate_towards against the (..., 3) formula."""

    @pytest.fixture(scope="class")
    def batch(self):
        gen = RandomStream(2024).generator()
        n = 100_000
        v = gen.normal(size=(n, 3))
        axes = v / np.linalg.norm(v, axis=-1, keepdims=True)
        return axes, gen.uniform(-1.0, 1.0, n), gen.uniform(0.0, 2 * np.pi, n)

    @pytest.mark.parametrize("layout", [np.ascontiguousarray, _column_major])
    def test_random_rows(self, batch, layout):
        axes, tilts, azimuths = batch
        axes = layout(axes)
        out = rotate_towards(axes, tilts, azimuths)
        assert out.shape == axes.shape
        assert all(out[:, c].flags.c_contiguous for c in range(3))
        np.testing.assert_array_equal(out, _rotate_reference(axes, tilts, azimuths))
        np.testing.assert_array_equal(rotate_towards(axes, 0.3, azimuths),
                                      _rotate_reference(axes, 0.3, azimuths))

    @pytest.mark.parametrize("layout", [np.ascontiguousarray, _column_major])
    def test_edge_rows(self, layout):
        eye = np.eye(3)
        axes = layout(np.concatenate([_near_x_rows(), eye, -eye]))
        n = axes.shape[0]
        azimuths = np.linspace(0.0, 2 * np.pi, n)
        per_row = np.linspace(-1.0, 1.0, n)
        for tilt in (1.0, -1.0, 0.25, per_row):
            np.testing.assert_array_equal(rotate_towards(axes, tilt, azimuths),
                                          _rotate_reference(axes, tilt, azimuths))

    def test_single_vector_and_nested_batch(self, batch):
        axes, tilts, azimuths = batch
        for axis in (axes[0], np.array([1.0, 0.0, 0.0]), np.array([0.0, -1.0, 0.0])):
            out = rotate_towards(axis, 0.4, 1.1)
            assert out.shape == (3,)
            np.testing.assert_array_equal(out, _rotate_reference(axis, 0.4, 1.1))
            # one axis broadcast against per-row tilts
            np.testing.assert_array_equal(rotate_towards(axis, tilts[:7], azimuths[:7]),
                                          _rotate_reference(axis, tilts[:7], azimuths[:7]))
            # one axis and one tilt against per-row azimuths
            np.testing.assert_array_equal(rotate_towards(axis, 0.4, azimuths[:7]),
                                          _rotate_reference(axis, 0.4, azimuths[:7]))
        # per-row axes and tilts against one azimuth
        np.testing.assert_array_equal(rotate_towards(axes[:7], tilts[:7], 1.1),
                                      _rotate_reference(axes[:7], tilts[:7], 1.1))
        nested = axes[:10].reshape(2, 5, 3)
        for layout in (np.ascontiguousarray, _column_major):
            args = (layout(nested), tilts[:10].reshape(2, 5), azimuths[:10].reshape(2, 5))
            out = rotate_towards(*args)
            assert out.shape == (2, 5, 3)
            np.testing.assert_array_equal(out, _rotate_reference(*args))
        # tilts with more axes than the azimuths and the axis
        args = (axes[:5], tilts[:10].reshape(2, 5), azimuths[:5])
        np.testing.assert_array_equal(rotate_towards(*args), _rotate_reference(*args))

    def test_row_dot_is_numpy_sum(self, batch):
        axes, _, _ = batch
        other = np.roll(axes, 1, axis=0)
        for u, v in ((axes, other), (_column_major(axes), other),
                     (_column_major(axes), _column_major(other))):
            np.testing.assert_array_equal(row_dot(u, v), np.sum(u * v, axis=-1))
            np.testing.assert_array_equal(np.sqrt(row_dot(u, u)),
                                          np.linalg.norm(u, axis=-1))

    @pytest.mark.parametrize("layout", [np.ascontiguousarray, _column_major])
    @pytest.mark.parametrize("rows", [0, 1, 6, 7, 8, 3 * 7 + 5])
    def test_block_edges(self, batch, layout, rows):
        axes, tilts, azimuths = batch
        # near-x rows at rows 5..12; row 3 is just within the unit-norm
        # tolerance
        axes = np.concatenate([axes[:5], _near_x_rows(), axes[5:]])[:rows]
        axes[3:4] *= 1.0 - 0.95e-9
        axes = layout(axes)
        for tilt in (tilts[:rows], 0.3):
            out = rotate_towards(axes, tilt, azimuths[:rows])
            assert out.shape == (rows, 3)
            assert np.array_equal(out, _rotate_reference(axes, tilt, azimuths[:rows]))

    @pytest.mark.parametrize("axis_excess,bad_tilts", [
        ({24: 1e-7, 2: 5e-6}, ()), ({24: 5e-6}, ()), ({}, (24,)), ({24: 5e-6}, (3,)),
        ({24: 1.05e-9}, ())])
    def test_bad_rows_in_late_blocks(self, batch, axis_excess, bad_tilts):
        # the message is the whole batch's: the worst axis row, and an
        # axis fault before a tilt fault, wherever in the batch each sits
        axes, tilts, azimuths = (v[:26].copy() for v in batch)
        for row, excess in axis_excess.items():
            axes[row] *= 1.0 + excess
        tilts[list(bad_tilts)] = 1.5
        with pytest.raises(ValueError) as expected:
            _rotate_reference(axes, tilts, azimuths)
        with pytest.raises(ValueError, match=re.escape(str(expected.value)) + "$"):
            rotate_towards(axes, tilts, azimuths)

    def test_bad_input_messages_unchanged(self):
        cases = [(np.array([1.0, 1.0, 0.0]), 0.5), (np.array([[0.0, 0.0, 1.0], [0.6, 0.8, 0.1]]), 0.5),
                 (np.array([0.0, 0.0, 1.0]), 1.5), (np.array([0.0, 0.0, 1.0, 0.0]), 0.5),
                 # batches of no rows still check what they hold
                 (np.zeros((0, 3)), 1.5), (np.array([[1.0, 1.0, 0.0]]), np.zeros(0))]
        for axis, tilt in cases:
            with pytest.raises(ValueError) as expected:
                _rotate_reference(axis, tilt, 0.0)
            with pytest.raises(ValueError, match=re.escape(str(expected.value)) + "$"):
                rotate_towards(axis, tilt, 0.0)


class TestWholeChainOnReference:
    """Every chain gives the same overlaps with the (..., 3) formula
    patched in for the kernel, on the same stream."""

    @pytest.mark.parametrize("scheme", ["covariant", "stern_gerlach"])
    @pytest.mark.parametrize("overlap", ["estimate", "prepared"])
    def test_single_qubit(self, monkeypatch, scheme, overlap):
        # the covariant one is the 3-D chain that tests the overlap recurrence
        def run():
            if scheme == "covariant":
                observers = chain_observers("single_qubit", 1, 3, 0.7, overlap=overlap)
                return observer_chain(observers, RandomStream(31), 2000)
            return chain_dots_single(3, QubitKrausFamily(0.7), scheme, RandomStream(31),
                                     2000, overlap=overlap)
        fast = run()
        monkeypatch.setattr(sphere, "rotate_towards", _rotate_reference)
        np.testing.assert_array_equal(fast, run())

    @pytest.mark.parametrize("mode", ["nspin_parallel", "nspin_optimal", "parallel_start"])
    def test_nspin(self, monkeypatch, mode):
        # the 3-D chain that tests chain_dots_nspin's overlap recurrence
        def run():
            return observer_chain(chain_observers(mode, 6, 3), RandomStream(31), 2000)
        fast = run()
        monkeypatch.setattr(sphere, "rotate_towards", _rotate_reference)
        np.testing.assert_array_equal(fast, run())


class TestChainBlocks:
    """Chains run in blocks of _CHAIN_ROWS trials; every block reads the
    draws that one whole-batch run gives its rows."""

    SINGLE = [(scheme, overlap) for scheme in ("covariant", "stern_gerlach")
              for overlap in ("estimate", "prepared")]
    NSPIN = ["nspin_parallel", "nspin_optimal", "parallel_start"]

    @staticmethod
    def _chains(trials):
        runs = [chain_dots_single(3, QubitKrausFamily(0.7), scheme, RandomStream(8), trials,
                                  overlap=overlap)
                for scheme, overlap in TestChainBlocks.SINGLE]
        runs += [chain_dots_nspin(6, 3, mode, RandomStream(8), trials)
                 for mode in TestChainBlocks.NSPIN]
        return runs

    @pytest.mark.parametrize("trials", [1, 6, 7, 8, 26])
    def test_block_edges(self, monkeypatch, trials):
        whole = self._chains(trials)
        monkeypatch.setattr(sphere, "_CHAIN_ROWS", 7)
        for one_block, blocked in zip(whole, self._chains(trials)):
            assert blocked.shape == (trials, 3)
            assert np.array_equal(blocked, one_block)

    def test_dots_are_column_major(self):
        for dots in self._chains(26):
            assert all(dots[:, j].flags.c_contiguous for j in range(3))

    @pytest.mark.parametrize("rng", [8, np.int64(8), RandomStream(8).generator(), None])
    def test_rng_must_be_a_stream(self, rng):
        with pytest.raises(TypeError, match="rng must be a RandomStream"):
            chain_dots_single(2, QubitKrausFamily(0.7), "covariant", rng, 10)
        with pytest.raises(TypeError, match="rng must be a RandomStream"):
            chain_dots_nspin(6, 2, "nspin_optimal", rng, 10)

    def test_peak_memory(self):
        # a 300k-trial chain may hold its overlaps and block-sized arrays,
        # not (trials, 3) arrays per step
        tracemalloc.start()
        try:
            dots = chain_dots_single(6, QubitKrausFamily(np.pi / 2), "covariant",
                                     RandomStream(3), 300_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dots.shape == (300_000, 6)
        assert peak <= dots.nbytes + 6 * 2 ** 20
