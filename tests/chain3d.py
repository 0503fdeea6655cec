"""The 3-D chain of directions: the test oracle of the scalar overlap chain.

Directions are plain float ndarrays: shape ``(3,)`` for a single unit
vector or ``(..., 3)`` for batches.  The geometric functions broadcast
over leading axes.  The samplers draw arrays of an int ``size`` through
``random(size)`` alone, from the NumPy ``Generator`` they are given.

:func:`chain_dots_nspin` runs the turns, chunks and streams of
:func:`spinrelay.encoding._chain` through the library's scalar kernel,
``encoding._run_chunk``, chunk after chunk; :func:`chain_dots_3d` runs them
on unit vectors, so a patched ``encoding._CHAIN_ROWS`` applies to both.
With ``measure=stern_gerlach`` the 3-D chain runs the Stern-Gerlach chain
with a 3-D random axis, the oracle of the library's scalar Stern-Gerlach
sampler.  Both kernels hand each observer's overlaps to a consumer;
:func:`collected` turns either into a function that returns all of a
chain's overlaps.
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


def _observers(k: int):
    """The k_values of a chain that records every one of its k observers:
    1..k, whose slots are the columns 0..k-1, or k itself when it is below 1,
    for ``encoding._chain`` to reject."""
    return range(1, k + 1) or (k,)


def chain_dots_nspin(n_spins: int, k: int, mode: str, rng, trials: int, phi: float,
                     overlap: str, consume, measure=None) -> None:
    """The scalar chain of ``encoding._chain`` on the calling thread, chunk by
    chunk in row order on one scratch, handing ``consume(column, overlaps)``
    each recording turn's (rows,) overlaps, columns in increasing order: with
    the true direction of observer column + 1's estimate, or with
    ``overlap="prepared"`` of the state it hands on.  They sit in a scratch
    row that a later turn reuses, so a consumer that keeps them copies them.
    A ``measure`` sampler ``(gen, size)``, such as ``qubit.stern_gerlach``,
    replaces every tilt law."""
    turns, chunks, _ = encoding._chain(n_spins, _observers(k), mode, rng, trials, phi,
                                       overlap, measure)
    scratch = np.empty((6, min(trials, encoding._CHAIN_ROWS)))
    for rows, gen in chunks:
        encoding._run_chunk(turns, rows, gen, scratch, consume)


def chain_dots_3d(n_spins: int, k: int, mode: str, rng, trials: int, phi: float,
                  overlap: str, consume, measure=None) -> None:
    """The 3-D twin of :func:`chain_dots_nspin`, with its arguments and its
    hand-off of each recorded overlap to ``consume(column, overlaps)``, plus
    ``measure``: each observer estimates the direction by tilting the state
    it is handed by a draw from its step's law at a uniform azimuth, or by
    ``measure(state, gen)`` when given, and hands on that estimate turned by
    its offset angle at a uniform azimuth; a zero offset hands on the
    estimate itself and draws nothing.

    It walks the same turns of ``encoding._chain`` in the same chunks, hands
    on the same columns and makes the same fills in the same order: the
    true directions, then per turn the tilt draw of a tilt turn (or the
    measurement's, which replaces tilt turns only) and the azimuth."""
    turns, chunks, _ = encoding._chain(n_spins, _observers(k), mode, rng, trials, phi,
                                       overlap)
    for rows, gen in chunks:
        state = true_dirs = sample_uniform_sphere(gen, rows)
        for x, column in turns():
            if measure is not None and callable(x):  # a tilt turn, measured
                state = measure(state, gen)
            else:
                state = tilt_step(state, x(gen, rows) if callable(x) else x, gen)
            if column is not None:
                consume(column, np.sum(state * true_dirs, axis=-1))


def collected(chain):
    """``chain``, either kernel, returning its column-major (trials, k)
    overlaps: a copy of every chunk of every column it hands on, stacked
    in row order, with phi = 0 and the estimate's overlap unless given."""
    def run(n_spins, k, mode, rng, trials, phi=0.0, overlap="estimate", measure=None):
        columns = [[] for _ in range(k)]
        chain(n_spins, k, mode, rng, trials, phi, overlap,
              lambda column, overlaps: columns[column].append(overlaps.copy()), measure)
        return np.array([np.concatenate(chunks) for chunks in columns]).T
    return run


#: the two kernels as the tests call them, returning all of a chain's overlaps
collected_nspin = collected(chain_dots_nspin)
collected_3d = collected(chain_dots_3d)
