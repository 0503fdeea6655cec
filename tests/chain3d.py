"""The 3-D chain of directions: the test oracle of the scalar overlap chain.

Directions are plain float ndarrays: shape ``(3,)`` for a single unit
vector or ``(..., 3)`` for batches.  The geometric functions broadcast
over leading axes.  The samplers draw arrays of an int ``size`` through
``random(size)`` alone, from the NumPy ``Generator`` they are given.

:func:`chain_dots_3d` runs the turns, chunks and streams of
:func:`spinrelay.encoding._chain`, as ``chain_dots_nspin`` does, on unit
vectors, so a patched ``encoding._CHAIN_ROWS`` applies to both kernels.
With ``measure=stern_gerlach`` it runs the Stern-Gerlach chain with a 3-D
random axis, the oracle of the library's scalar Stern-Gerlach sampler.
Both kernels hand each chunk's overlaps to a consumer; :func:`collected`
turns either into a function that returns all of a chain's overlaps.
"""

from __future__ import annotations

import numpy as np

from spinrelay import encoding

#: tolerance of the unit-norm invariant guaranteed by constructors/rotations
UNIT_TOL = 1e-12

#: tolerance used when *validating* unit-norm inputs (a little slack over
#: UNIT_TOL so values that round-tripped through arithmetic still pass)
_VALIDATE_TOL = 1e-9


def sample_uniform_sphere(gen, size: int) -> np.ndarray:
    """Draw ``size`` directions, shape (size, 3), uniform with respect to
    sin(theta) dtheta dphi / (4 pi) by the area-preserving map: z uniform on
    [-1, 1], azimuth on [0, 2 pi), each lower + range u for a ``gen.random``
    draw u, as NumPy's ``Generator.uniform`` computes it."""
    z = -1.0 + 2.0 * gen.random(size)
    phi = 2.0 * np.pi * gen.random(size)
    s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=-1)


def rotate_towards(axis, cos_tilt, azimuth) -> np.ndarray:
    """Direction at prescribed tilt cosine from ``axis``.

    The result r satisfies r . axis = cos_tilt and |r| = 1 (both within
    1e-12).  ``azimuth`` fixes the position on the tilt cone in a
    deterministic right-handed frame built from the axis and the global
    x-hat (y-hat is substituted when the axis is within 1e-6 of +-x-hat).
    Only the tilt is physically meaningful for covariant chains; the frame
    is just a reproducible convention.

    Broadcasts: axis (..., 3), cos_tilt (...), azimuth (...).
    """
    axis = np.asarray(axis, dtype=float)
    if axis.shape[-1] != 3:
        raise ValueError(f"axis must have 3 components, got shape {axis.shape}")
    excess = np.abs(np.linalg.norm(axis, axis=-1) - 1.0)
    if not np.all(excess <= _VALIDATE_TOL):
        raise ValueError(f"axis is not unit-norm (max |norm-1| = {float(np.max(excess)):.3e})")
    cos_tilt = np.asarray(cos_tilt, dtype=float)
    if np.any(np.abs(cos_tilt) > 1.0 + UNIT_TOL):
        raise ValueError("cos_tilt must lie in [-1, 1]")
    x = np.clip(cos_tilt, -1.0, 1.0)[..., None]
    psi = np.asarray(azimuth, dtype=float)[..., None]
    s = np.sqrt(np.maximum(0.0, 1.0 - x * x))

    # Gram-Schmidt of the reference axis against a; ref . a is exactly
    # a_x (ref = x-hat) or a_y (ref = y-hat)
    near_x = np.abs(axis[..., :1]) > 1.0 - 1e-6
    ref = np.where(near_x, [0.0, 1.0, 0.0], [1.0, 0.0, 0.0])
    e1 = ref - np.where(near_x, axis[..., 1:2], axis[..., :1]) * axis
    e1 /= np.linalg.norm(e1, axis=-1, keepdims=True)
    # x a + s cos(psi) e1 + s sin(psi) e2 with e2 = a x e1
    return x * axis + s * np.cos(psi) * e1 + s * np.sin(psi) * np.cross(axis, e1)


def tilt_step(dirs, cos_tilt, gen) -> np.ndarray:
    """Tilt each row of ``dirs`` (shape (n, 3)) by ``cos_tilt`` at a uniform
    azimuth drawn from ``gen``: one covariant step."""
    return rotate_towards(dirs, cos_tilt, 2.0 * np.pi * gen.random(dirs.shape[0]))


def stern_gerlach(state_dirs: np.ndarray, gen) -> np.ndarray:
    """Stern-Gerlach observer: a uniformly random axis m, outcome +- with
    probability (1 +- m . state)/2, and the outcome direction as estimate.
    Marginally this reproduces the covariant observer."""
    n = state_dirs.shape[0]
    axes = sample_uniform_sphere(gen, n)
    p_plus = 0.5 * (1.0 + np.sum(axes * state_dirs, axis=-1))
    axes *= np.where(gen.random(n) < p_plus, 1.0, -1.0)[:, None]
    return axes


def chain_dots_3d(n_spins: int, k: int, mode: str, rng, trials: int, phi: float,
                  overlap: str, consume, measure=None) -> None:
    """The 3-D twin of ``chain_dots_nspin``, with its arguments and its
    hand-off of each chunk's block to ``consume``, plus ``measure``: each
    observer estimates the direction by tilting the state it is handed by a
    draw from its step's law at a uniform azimuth, or by
    ``measure(state, gen)`` when given, and hands on that estimate turned by
    its offset angle at a uniform azimuth; a zero offset hands on the
    estimate itself and draws nothing.

    It walks the same turns of ``encoding._chain`` in the same chunks, fills
    the same columns and makes the same fills in the same order: the true
    directions, then per turn the tilt draw of a tilt turn (or the
    measurement's, which replaces tilt turns only) and the azimuth."""
    turns, blocks = encoding._chain(n_spins, k, mode, rng, trials, phi, overlap)
    for block, gen in blocks:
        rows = block.shape[0]
        state = true_dirs = sample_uniform_sphere(gen, rows)
        for x, column in turns:
            if measure is not None and callable(x):  # a tilt turn, measured
                state = measure(state, gen)
            else:
                state = tilt_step(state, x(gen, rows) if callable(x) else x, gen)
            if column is not None:
                block[:, column] = np.sum(state * true_dirs, axis=-1)
        consume(block)


def collected(chain):
    """``chain``, either kernel, returning its column-major (trials, k)
    overlaps: a copy of every block it hands on, stacked in row order,
    with phi = 0 and the estimate's overlap unless given."""
    def run(n_spins, k, mode, rng, trials, phi=0.0, overlap="estimate", measure=None):
        blocks = []
        chain(n_spins, k, mode, rng, trials, phi, overlap,
              lambda block: blocks.append(block.T.copy()), measure)
        return np.concatenate(blocks, axis=1).T
    return run


#: the two kernels as the tests call them, returning all of a chain's overlaps
collected_nspin = collected(encoding.chain_dots_nspin)
collected_3d = collected(chain_dots_3d)
