"""The parallel tilt law, and the sphere sampling and tilt rotation of the
3-D oracle chain."""

from functools import partial
import re
import tracemalloc

import numpy as np
import pytest

from spinrelay import encoding
from spinrelay.qubit import stern_gerlach
from spinrelay.rng import RandomStream
from spinrelay.sphere import sample_cos_tilt

import chain3d
from chain3d import collected_3d as chain_dots_3d, collected_nspin as chain_dots_nspin
from chain3d import rotate_towards, sample_uniform_sphere, tilt_step

# one-sample Kolmogorov-Smirnov critical value at the 1% level
KS_CRIT_1PCT = 1.62762


def _unit(*v):
    return np.array(v) / np.linalg.norm(v)


class TestUniformSphere:
    def test_unit_norm(self):
        v = sample_uniform_sphere(RandomStream(1).generator(), 10_000)
        np.testing.assert_allclose(np.linalg.norm(v, axis=-1), 1.0, atol=1e-12)

    def test_first_moment(self):
        # each component has mean 0; analytic 3-sigma is ~0.0055 at 1e5
        v = sample_uniform_sphere(RandomStream(314).generator(), 100_000)
        assert np.all(np.abs(v.mean(axis=0)) < 0.01)

    def test_second_moment(self):
        # int z^2 dn = 1/3 by direct integration
        v = sample_uniform_sphere(RandomStream(314).generator(), 100_000)
        assert abs(np.mean(v[:, 2] ** 2) - 1.0 / 3.0) < 0.01


class TestRandomPrimitive:
    """The 3-D samplers draw through ``gen.random`` alone.  Their lower +
    range u is ``Generator.uniform``'s arithmetic, so they give the bits of
    the same samplers written with ``uniform`` on the same stream."""

    @staticmethod
    def _with_uniform(gen, tilts):
        # sample_uniform_sphere, then tilt_step, drawn with Generator.uniform
        z = gen.uniform(-1.0, 1.0, size=tilts.size)
        phi = gen.uniform(0.0, 2.0 * np.pi, size=tilts.size)
        s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        dirs = np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=-1)
        return dirs, rotate_towards(dirs, tilts, gen.uniform(0.0, 2.0 * np.pi, tilts.size))

    @staticmethod
    def _with_random(gen, tilts):
        dirs = sample_uniform_sphere(gen, tilts.size)
        return dirs, tilt_step(dirs, tilts, gen)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_generator(self, seed):
        stream = RandomStream(seed).child(4)
        by_random, by_uniform = stream.generator(), stream.generator()
        assert np.array_equal(-1.0 + 2.0 * by_random.random(10 ** 6),
                              by_uniform.uniform(-1.0, 1.0, 10 ** 6))
        assert np.array_equal(2.0 * np.pi * by_random.random(10 ** 6),
                              by_uniform.uniform(0.0, 2.0 * np.pi, 10 ** 6))
        tilts = RandomStream(seed).generator().uniform(-1.0, 1.0, 100_000)
        for drawn, expected in zip(self._with_random(stream.generator(), tilts),
                                   self._with_uniform(stream.generator(), tilts)):
            assert np.array_equal(drawn, expected)


class TestCosTilt:
    def test_inverse_cdf_endpoints(self):
        # a draw of 0 is u = 1, which maps to x = 1 exactly, and u = 0 to -1
        class Ends:
            @staticmethod
            def random(size, out=None):
                assert out is None
                return np.array([0.0, 1.0])[:size]

        for n_copies in (1, 3, 50):
            assert sample_cos_tilt(Ends, n_copies, 2).tolist() == [1.0, -1.0]

    def test_rejects_no_copies(self):
        with pytest.raises(ValueError, match="n_copies must be >= 1, got 0"):
            sample_cos_tilt(RandomStream(0).generator(), 0, 10)

    @pytest.mark.parametrize("n_copies,mean", [(1, 1.0 / 3.0), (4, 4.0 / 6.0)])
    def test_mean(self, n_copies, mean):
        x = sample_cos_tilt(RandomStream(2718).generator(), n_copies, 100_000)
        se = x.std(ddof=1) / np.sqrt(x.size)
        assert abs(x.mean() - mean) < 3 * se, (
            f"N={n_copies}: mean {x.mean():.5f} vs {mean:.5f} (3se={3*se:.5f})")

    def test_range(self):
        for n_copies in (1, 50):
            x = sample_cos_tilt(RandomStream(3).generator(), n_copies, 10_000)
            assert x.shape == (10_000,)
            assert np.all((-1.0 <= x) & (x <= 1.0))

    @pytest.mark.parametrize("n_copies", [1, 4])
    def test_ks_against_analytic_cdf(self, n_copies):
        x = np.sort(sample_cos_tilt(RandomStream(2718).generator(), n_copies, 100_000))
        cdf = ((1.0 + x) / 2.0) ** (n_copies + 1)
        n = x.size
        ks = max(np.max(np.abs(np.arange(1, n + 1) / n - cdf)),
                 np.max(np.abs(np.arange(0, n) / n - cdf)))
        assert ks < KS_CRIT_1PCT / np.sqrt(n), f"KS={ks:.5f} beyond 1% critical value"


def _near_x_rows():
    """Unit rows whose |a_x| sits just above and just below 1 - 1e-6,
    where rotate_towards switches its reference axis."""
    rows = []
    for ax in (1.0 - 1e-6 + 1e-9, 1.0 - 1e-6 - 1e-9, 1.0 - 1e-6 + 1e-12, 1.0 - 1e-6 - 1e-12):
        for sign in (1.0, -1.0):
            rest = np.sqrt(1.0 - ax * ax)
            rows.append(_unit(sign * ax, 0.6 * rest, -0.8 * rest))
    return np.array(rows)


class TestRotateTowards:
    @staticmethod
    def _assert_contract(out, axes, tilts):
        # |r| = 1 and r . a = x, row by row
        np.testing.assert_allclose(np.linalg.norm(out, axis=-1), 1.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(np.sum(out * axes, axis=-1),
                                   np.broadcast_to(tilts, out.shape[:-1]), rtol=0, atol=1e-12)

    def test_tilt_one_returns_axis(self):
        axis = _unit(0.3, -0.5, 0.7)
        np.testing.assert_allclose(rotate_towards(axis, 1.0, 2.1), axis, atol=1e-12)

    def test_tilt_minus_one_flips(self):
        axis = _unit(0.3, -0.5, 0.7)
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

    def test_broadcast_nested_and_empty_batches(self):
        gen = RandomStream(2024).generator()
        axes = sample_uniform_sphere(gen, 10)
        tilts, azimuths = gen.uniform(-1.0, 1.0, 10), gen.uniform(0.0, 2 * np.pi, 10)
        for axis in (axes[0], np.array([1.0, 0.0, 0.0]), np.array([0.0, -1.0, 0.0])):
            out = rotate_towards(axis, 0.4, 1.1)
            assert out.shape == (3,)
            self._assert_contract(out, axis, 0.4)
            # one axis against per-row tilts, and one tilt against per-row azimuths
            self._assert_contract(rotate_towards(axis, tilts, azimuths), axis, tilts)
            self._assert_contract(rotate_towards(axis, 0.4, azimuths), axis, 0.4)
        # per-row axes and tilts against one azimuth
        self._assert_contract(rotate_towards(axes, tilts, 1.1), axes, tilts)
        nested = (axes.reshape(2, 5, 3), tilts.reshape(2, 5), azimuths.reshape(2, 5))
        out = rotate_towards(*nested)
        assert out.shape == (2, 5, 3)
        self._assert_contract(out, nested[0], nested[1])
        # tilts with more axes than the azimuths and the axis
        out = rotate_towards(axes[:5], tilts.reshape(2, 5), azimuths[:5])
        assert out.shape == (2, 5, 3)
        self._assert_contract(out, axes[:5], tilts.reshape(2, 5))
        for tilt in (0.3, np.zeros(0)):
            assert rotate_towards(np.zeros((0, 3)), tilt, 0.0).shape == (0, 3)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            rotate_towards(np.array([1.0, 1.0, 0.0]), 0.5, 0.0)
        with pytest.raises(ValueError):
            rotate_towards(np.array([0.0, 0.0, 1.0]), 1.5, 0.0)

    @pytest.mark.parametrize("axis, tilt, message", [
        (np.array([1.0, 1.0, 0.0]), 0.5, "axis is not unit-norm (max |norm-1| = 4.142e-01)"),
        (np.array([[0.0, 0.0, 1.0], [0.6, 0.8, 0.1]]), 0.5,
         "axis is not unit-norm (max |norm-1| = 4.988e-03)"),
        (np.array([0.0, 0.0, 1.0]), 1.5, "cos_tilt must lie in [-1, 1]"),
        (np.array([0.0, 0.0, 1.0, 0.0]), 0.5, "axis must have 3 components, got shape (4,)"),
        # batches of no rows still check what they hold
        (np.zeros((0, 3)), 1.5, "cos_tilt must lie in [-1, 1]"),
        (np.array([[1.0, 1.0, 0.0]]), np.zeros(0),
         "axis is not unit-norm (max |norm-1| = 4.142e-01)"),
    ], ids=["axis", "axis-rows", "tilt", "axis-shape", "no-rows-tilt", "no-tilts-axis"])
    def test_bad_input_messages(self, axis, tilt, message):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            rotate_towards(axis, tilt, 0.0)

    @pytest.mark.parametrize("axis_excess, bad_tilts, message", [
        ({24: 1e-7, 2: 5e-6}, (), "axis is not unit-norm (max |norm-1| = 5.000e-06)"),
        ({24: 5e-6}, (), "axis is not unit-norm (max |norm-1| = 5.000e-06)"),
        ({}, (24,), "cos_tilt must lie in [-1, 1]"),
        ({24: 5e-6}, (3,), "axis is not unit-norm (max |norm-1| = 5.000e-06)"),
        ({24: 1.05e-9}, (), "axis is not unit-norm (max |norm-1| = 1.050e-09)"),
    ], ids=["worst-axis-row", "late-axis-row", "late-tilt-row", "axis-before-tilt",
            "just-over-tolerance"])
    def test_bad_rows_anywhere_in_the_batch(self, axis_excess, bad_tilts, message):
        # the message is the whole batch's: the worst axis row, and an
        # axis fault before a tilt fault, wherever in the batch each sits;
        # row 7's excess of 0.95e-9 is within the tolerance
        gen = RandomStream(2024).generator()
        axes = sample_uniform_sphere(gen, 26)
        tilts, azimuths = gen.uniform(-1.0, 1.0, 26), gen.uniform(0.0, 2 * np.pi, 26)
        axes[7] *= 1.0 + 0.95e-9
        for row, excess in axis_excess.items():
            axes[row] *= 1.0 + excess
        tilts[list(bad_tilts)] = 1.5
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            rotate_towards(axes, tilts, azimuths)


def _column_major(v):
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(v, -1, 0)), 0, -1)


class TestKernelOracle:
    """rotate_towards, the 3-D chain's one kernel, on C-ordered and
    column-major rows: the same bits on either layout and from any prefix
    of a batch, and the documented frame within 1e-12."""

    @pytest.fixture(scope="class")
    def batch(self):
        gen = RandomStream(2024).generator()
        n = 100_000
        v = gen.normal(size=(n, 3))
        axes = v / np.linalg.norm(v, axis=-1, keepdims=True)
        return axes, gen.uniform(-1.0, 1.0, n), gen.uniform(0.0, 2 * np.pi, n)

    @staticmethod
    def _assert_frame(out, axes, tilts, azimuths):
        # r = x a + s cos(psi) e1 + s sin(psi) e2, where e1 is x-hat (y-hat
        # within 1e-6 of +-x-hat) made orthogonal to a, and e2 = a x e1
        near_x = np.abs(axes[..., :1]) > 1.0 - 1e-6
        e1 = np.where(near_x, [0.0, 1.0, 0.0], [1.0, 0.0, 0.0])
        e1 = e1 - np.sum(e1 * axes, axis=-1, keepdims=True) * axes
        e1 = e1 / np.linalg.norm(e1, axis=-1, keepdims=True)
        x = np.broadcast_to(tilts, out.shape[:-1])
        psi = np.broadcast_to(azimuths, out.shape[:-1])
        s = np.sqrt(1.0 - x * x)
        for direction, want in ((axes, x), (e1, s * np.cos(psi)),
                                (np.cross(axes, e1), s * np.sin(psi))):
            np.testing.assert_allclose(np.sum(out * direction, axis=-1), want,
                                       rtol=0, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(out, axis=-1), 1.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("layout", [np.ascontiguousarray, _column_major])
    def test_random_rows(self, batch, layout):
        axes, tilts, azimuths = batch
        for tilt in (tilts, 0.3):
            out = rotate_towards(layout(axes), tilt, azimuths)
            assert out.shape == axes.shape
            np.testing.assert_array_equal(out, rotate_towards(axes, tilt, azimuths))
            self._assert_frame(out, axes, tilt, azimuths)

    @pytest.mark.parametrize("layout", [np.ascontiguousarray, _column_major])
    def test_edge_rows(self, layout):
        # the rows at the frame switch and the six axes, with scalar and
        # per-row tilts and azimuths
        eye = np.eye(3)
        axes = np.concatenate([_near_x_rows(), eye, -eye])
        n = axes.shape[0]
        for tilt in (1.0, -1.0, 0.25, np.linspace(-1.0, 1.0, n)):
            for azimuth in (np.linspace(0.0, 2 * np.pi, n), 1.1):
                out = rotate_towards(layout(axes), tilt, azimuth)
                assert out.shape == (n, 3)
                np.testing.assert_array_equal(out, rotate_towards(axes, tilt, azimuth))
                self._assert_frame(out, axes, tilt, azimuth)

    @pytest.mark.parametrize("layout", [np.ascontiguousarray, _column_major])
    @pytest.mark.parametrize("rows", [0, 1, 6, 7, 8, 3 * 7 + 5])
    def test_block_edges(self, batch, layout, rows):
        # the leading rows of a batch get the bits that the whole batch
        # gives them, so no row depends on the rows after it; near-x rows
        # at rows 5..12, and row 3 is just within the unit-norm tolerance
        axes, tilts, azimuths = batch
        whole = np.concatenate([axes[:5], _near_x_rows(), axes[5:26 - 8]])
        whole[3:4] *= 1.0 - 0.95e-9
        for tilt in (tilts[:26], 0.3):
            expected = rotate_towards(whole, tilt, azimuths[:26])[:rows]
            tilt = tilt[:rows] if np.ndim(tilt) else tilt
            out = rotate_towards(layout(whole[:rows]), tilt, azimuths[:rows])
            assert out.shape == (rows, 3)
            assert np.array_equal(out, expected)


class TestChainBlocks:
    """Chains run in chunks of _CHAIN_ROWS trials; chunk c draws from the
    chain's stream when c = 0 and from its child(c) when c >= 1."""

    MODES = [("single_qubit", 1), ("nspin_parallel", 6), ("nspin_optimal", 6),
             ("parallel_start", 6)]
    CHAINS = [(chain, mode, n_spins)
              for mode, n_spins in MODES for chain in (chain_dots_nspin, chain_dots_3d)]
    CHAINS.append((partial(chain_dots_3d, measure=chain3d.stern_gerlach), "single_qubit", 1))
    CHAINS.append((partial(chain_dots_nspin, measure=stern_gerlach), "single_qubit", 1))

    @pytest.mark.parametrize("trials", [1, 6, 7, 8, 13, 14, 15, 21, 26])
    def test_block_edges(self, monkeypatch, trials):
        # in chunks of 7 rows, chunk c is the one-chunk chain of its rows
        # on its own stream, as the real chunk size runs it
        stream = RandomStream(8)
        cases = [(spec, phi, overlap) for spec in self.CHAINS
                 for phi in (0.0, 0.7) for overlap in ("estimate", "prepared")]

        def run(spec, phi, overlap, stream, trials):
            chain, mode, n_spins = spec
            return chain(n_spins, 3, mode, stream, trials, phi, overlap)

        expected = [np.concatenate([run(*case, stream.child(c) if c else stream,
                                        min(7, trials - lo))
                                    for c, lo in enumerate(range(0, trials, 7))])
                    for case in cases]
        monkeypatch.setattr(encoding, "_CHAIN_ROWS", 7)
        for case, chunks in zip(cases, expected):
            chunked = run(*case, stream, trials)
            assert chunked.shape == (trials, 3)
            assert np.array_equal(chunked, chunks), case

    @pytest.mark.parametrize("trials", [1, 7, 8, 26])
    def test_each_chunk_starts_its_own_stream(self, monkeypatch, trials):
        # chunk c's first fills are its true directions, drawn from the start
        # of the chain's stream (c = 0) or of its child(c) (c >= 1)
        seen, stream = [], RandomStream(10)

        def measure(state, gen):
            seen.append(state.copy())
            return state

        monkeypatch.setattr(encoding, "_CHAIN_ROWS", 7)
        chain_dots_3d(1, 1, "single_qubit", stream, trials, measure=measure)
        expected = [sample_uniform_sphere((stream.child(c) if c else stream).generator(),
                                          min(7, trials - lo))
                    for c, lo in enumerate(range(0, trials, 7))]
        assert len(seen) == len(expected)
        for got, want in zip(seen, expected):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("chain", [chain_dots_nspin, chain_dots_3d])
    @pytest.mark.parametrize("mode, n_spins", MODES)
    def test_more_trials_extend_whole_chunks(self, chain, mode, n_spins):
        # a cell's whole chunks keep their rows when it runs more trials
        rows = encoding._CHAIN_ROWS
        stream = RandomStream(9).child(n_spins)
        longer = chain(n_spins, 2, mode, stream, 3 * rows + 7, 0.7, "prepared")
        assert np.array_equal(longer[:2 * rows],
                              chain(n_spins, 2, mode, stream, 2 * rows, 0.7, "prepared"))

    def test_overlaps_reach_consume_in_order(self, monkeypatch):
        # every recorded turn hands its chunk's (rows,) overlaps to consume,
        # which MomentFold reduces: chunk by chunk in row order, columns in
        # increasing order within a chunk, the last chunk's short one included
        kernels = [(kernel, mode, n_spins, None) for mode, n_spins in self.MODES
                   for kernel in (chain3d.chain_dots_nspin, chain3d.chain_dots_3d)]
        kernels += [(chain3d.chain_dots_3d, "single_qubit", 1, chain3d.stern_gerlach),
                    (chain3d.chain_dots_nspin, "single_qubit", 1, stern_gerlach)]
        monkeypatch.setattr(encoding, "_CHAIN_ROWS", 7)
        for kernel, mode, n_spins, measure in kernels:
            for overlap in ("estimate", "prepared"):
                calls = []

                def consume(column, overlaps):
                    assert overlaps.ndim == 1 and overlaps.flags.c_contiguous
                    calls.append((column, overlaps.size))
                assert kernel(n_spins, 3, mode, RandomStream(8), 26, 0.7, overlap, consume,
                              measure) is None
                assert calls == [(column, rows) for rows in [7, 7, 7, 5]
                                 for column in range(3)], (kernel, mode, overlap)

    @pytest.mark.parametrize("rng", [8, np.int64(8), RandomStream(8).generator(), None])
    def test_rng_must_be_a_stream(self, rng):
        with pytest.raises(TypeError, match="rng must be a RandomStream"):
            chain_dots_nspin(1, 2, "single_qubit", rng, 10, 0.7)
        with pytest.raises(TypeError, match="rng must be a RandomStream"):
            chain_dots_nspin(6, 2, "nspin_optimal", rng, 10)

    def test_peak_memory(self):
        # a 300k-trial chain holds its scratch of six chunk-sized rows,
        # 768 KiB, and no (rows, k) block, (trials, k) overlaps or (trials, 3)
        # arrays per step
        tracemalloc.start()
        try:
            chain3d.chain_dots_nspin(1, 6, "single_qubit", RandomStream(3), 300_000, np.pi / 2,
                                     "estimate", lambda column, overlaps: None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 2 ** 20, peak
