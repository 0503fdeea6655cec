"""Geometry and sampling on the unit 2-sphere.

Directions are plain float ndarrays: shape ``(3,)`` for a single unit
vector or ``(..., 3)`` for batches.  The geometric functions broadcast
over leading axes.  Every chain runs in the blocks of :func:`chain_blocks`:
the 3-D ones through :func:`observer_chain`, each covariant step a
:func:`tilt_step`, and the N-spin overlaps alone in
:func:`spinrelay.encoding.chain_dots_nspin`.

The kernel, :func:`rotate_towards`, works one component column at a
time, with numpy broadcasting the columns against the tilts and
azimuths; a chain block is small enough that its temporaries stay in
cache.  So the batches that :func:`sample_uniform_sphere` and
:func:`rotate_towards` return are column-major ``(n, 3)`` views, each
component contiguous: index the last axis, and do not assume C order.
"""

from __future__ import annotations

import numpy as np

from .rng import RandomStream, as_generator

#: tolerance of the unit-norm invariant guaranteed by constructors/rotations
UNIT_TOL = 1e-12

#: tolerance used when *validating* unit-norm inputs (a little slack over
#: UNIT_TOL so values that round-tripped through arithmetic still pass)
_VALIDATE_TOL = 1e-9

#: trials per block of chain_blocks, so that a chain step holds a few
#: (rows, 3) arrays of this many rows however many trials run, and the
#: 128 KB column temporaries of rotate_towards stay in a 2 MB L2 cache
_CHAIN_ROWS = 2 ** 14


def unit_vector(x: float, y: float, z: float) -> np.ndarray:
    """Build a unit vector from Cartesian components, normalizing them.

    Raises ``ValueError`` for a (near-)zero input vector.
    """
    v = np.array([x, y, z], dtype=float)
    n = np.linalg.norm(v)
    if not np.isfinite(n) or n < 1e-300:
        raise ValueError("cannot normalize a zero or non-finite vector")
    return v / n


def _columns(shape) -> np.ndarray:
    """Uninitialized ``shape + (3,)`` array whose components are contiguous."""
    return np.moveaxis(np.empty((3,) + tuple(shape)), 0, -1)


def row_dot(u, v) -> np.ndarray:
    """Row-wise dot product of (..., 3) arrays, one column at a time.

    Sums (u0 v0 + u1 v1) + u2 v2, the order of ``np.sum(u * v, axis=-1)``
    and ``np.linalg.norm``, so the bits match theirs.
    """
    out = u[..., 0] * v[..., 0]
    out += u[..., 1] * v[..., 1]
    out += u[..., 2] * v[..., 2]
    return out


def require_unit(v, name: str = "vector") -> np.ndarray:
    """Validate that ``v`` (shape (..., 3)) has unit norm; return it as float array."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1] != 3:
        raise ValueError(f"{name} must have 3 components, got shape {v.shape}")
    norms = np.sqrt(row_dot(v, v))
    if not np.all(np.abs(norms - 1.0) <= _VALIDATE_TOL):
        worst = float(np.max(np.abs(norms - 1.0)))
        raise ValueError(f"{name} is not unit-norm (max |norm-1| = {worst:.3e})")
    return v


def sample_uniform_sphere(rng, size: int | None = None) -> np.ndarray:
    """Draw directions uniform with respect to sin(theta) dtheta dphi / (4 pi).

    Uses the area-preserving map: z uniform on [-1, 1], azimuth uniform on
    [0, 2 pi).  Returns shape (3,) for ``size=None``, else (size, 3).
    """
    gen = as_generator(rng)
    z = gen.uniform(-1.0, 1.0, size=size)
    phi = gen.uniform(0.0, 2.0 * np.pi, size=size)
    s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    out = _columns(np.shape(z))
    np.multiply(s, np.cos(phi), out=out[..., 0])
    np.multiply(s, np.sin(phi), out=out[..., 1])
    out[..., 2] = z
    return out


def inverse_cdf_cos_tilt(u, n_copies: int):
    """Exact inverse CDF of the tilt-cosine law for ``n_copies`` parallel copies.

    The density is (N+1) ((1+x)/2)^N / 2 on [-1, 1] with CDF ((1+x)/2)^(N+1),
    so x = 2 u^(1/(N+1)) - 1.  ``u = 1`` maps to ``x = 1`` exactly.
    """
    if n_copies < 1:
        raise ValueError(f"n_copies must be >= 1, got {n_copies}")
    u = np.asarray(u, dtype=float)
    x = 2.0 * u ** (1.0 / (n_copies + 1)) - 1.0
    return x if x.ndim else float(x)


def sample_cos_tilt(rng, n_copies: int, size: int | None = None):
    """Sample the cosine of the tilt between estimate and encoded direction.

    For an ensemble of ``n_copies`` identical copies measured with the
    uniform-prior-optimal POVM the tilt cosine has density
    (N+1) ((1+x)/2)^N / 2; its mean is N/(N+2).  Sampling is by the exact
    inverse CDF with u uniform on (0, 1].
    """
    if n_copies < 1:
        raise ValueError(f"n_copies must be >= 1, got {n_copies}")
    gen = as_generator(rng)
    u = 1.0 - gen.random(size)  # gen.random is [0,1) -> u in (0,1]
    return inverse_cdf_cos_tilt(u, n_copies)


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
    axis = require_unit(axis, "axis")
    cos_tilt = np.asarray(cos_tilt, dtype=float)
    if np.any(np.abs(cos_tilt) > 1.0 + UNIT_TOL):
        raise ValueError("cos_tilt must lie in [-1, 1]")
    x = np.clip(cos_tilt, -1.0, 1.0)
    psi = np.asarray(azimuth, dtype=float)
    s = np.sqrt(np.maximum(0.0, 1.0 - x * x))
    s_cos, s_sin = s * np.cos(psi), s * np.sin(psi)

    # Gram-Schmidt of the reference axis against a, one component column
    # at a time; ref . a is exactly a_x (ref = x-hat) or a_y (ref = y-hat).
    # 0.0 - p keeps the zeros' sign that -p would flip.
    a = [axis[..., c] for c in range(3)]
    near_x = np.abs(a[0]) > 1.0 - 1e-6
    proj = np.where(near_x, a[1], a[0])
    e1 = [~near_x - proj * a[0], near_x - proj * a[1], 0.0 - proj * a[2]]
    norm = np.sqrt(e1[0] * e1[0] + e1[1] * e1[1] + e1[2] * e1[2])  # row_dot's order
    e1 = [e / norm for e in e1]

    # x a + s cos(psi) e1 + s sin(psi) e2 with e2 = a x e1
    out = _columns(np.broadcast_shapes(axis.shape[:-1], x.shape, psi.shape))
    for c in range(3):
        i, j = (c + 1) % 3, (c + 2) % 3
        e2 = a[i] * e1[j] - a[j] * e1[i]
        out[..., c] = x * a[c] + s_cos * e1[c] + s_sin * e2
    return out


def tilt_step(dirs, cos_tilt, gen) -> np.ndarray:
    """Tilt each row of ``dirs`` (shape (n, 3)) by ``cos_tilt`` at a uniform
    azimuth drawn from ``gen``: one covariant step."""
    az = gen.uniform(0.0, 2.0 * np.pi, size=dirs.shape[0])
    return rotate_towards(dirs, cos_tilt, az)


def chain_blocks(rng: RandomStream, trials: int, k: int):
    """Check ``trials`` and the RandomStream ``rng``, then allocate a
    chain's column-major (trials, k) overlaps; returns them and an iterator
    over their blocks of at most _CHAIN_ROWS rows, each with the ``rng.rows``
    view that gives its rows the draws of one batch of ``trials`` rows."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not isinstance(rng, RandomStream):
        raise TypeError(f"rng must be a RandomStream, got {type(rng).__name__}")
    dots = np.empty((k, trials)).T
    bounds = ((lo, min(lo + _CHAIN_ROWS, trials)) for lo in range(0, trials, _CHAIN_ROWS))
    return dots, ((dots[lo:hi], rng.rows(lo, hi, trials)) for lo, hi in bounds)


def observer_chain(observers, rng: RandomStream, trials: int) -> np.ndarray:
    """Run ``trials`` chains of the given observers from the RandomStream
    ``rng`` in the blocks of :func:`chain_blocks`; returns their (trials,
    len(observers)) column-major overlaps.  Each block draws the true
    directions, then applies each observer ``(state, gen) -> (tracked,
    handed_on)`` to the state the previous one handed on; column j holds
    the overlap of observer j's ``tracked`` direction with the true one."""
    dots, blocks = chain_blocks(rng, trials, len(observers))
    for block, gen in blocks:
        state = true_dirs = sample_uniform_sphere(gen, block.shape[0])
        for j, observe in enumerate(observers):
            tracked, state = observe(state, gen)
            block[:, j] = row_dot(tracked, true_dirs)
    return dots
