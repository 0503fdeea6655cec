"""Geometry and sampling on the unit 2-sphere.

Directions are plain float ndarrays: shape ``(3,)`` for a single unit
vector or ``(..., 3)`` for batches.  The geometric functions broadcast
over leading axes.  The samplers draw arrays of an int ``size`` through
``random(size)`` alone, from the NumPy ``Generator`` they are given.  The
3-D chain of :func:`spinrelay.encoding.chain_dots_3d` steps through
:func:`tilt_step`, for the Stern-Gerlach scheme and the test oracles.
"""

from __future__ import annotations

import numpy as np

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


def sample_cos_tilt(gen, n_copies: int, size: int) -> np.ndarray:
    """Sample ``size`` cosines of the tilt between estimate and encoded direction.

    For an ensemble of ``n_copies`` identical copies measured with the
    uniform-prior-optimal POVM the tilt cosine has density
    (N+1) ((1+x)/2)^N / 2, with CDF ((1+x)/2)^(N+1) and mean N/(N+2).
    Sampling is by the exact inverse CDF, x = 2 u^(1/(N+1)) - 1 with u
    uniform on (0, 1]; u = 1 maps to x = 1 exactly.
    """
    if n_copies < 1:
        raise ValueError(f"n_copies must be >= 1, got {n_copies}")
    u = 1.0 - gen.random(size)  # gen.random is [0,1) -> u in (0,1]
    return 2.0 * u ** (1.0 / (n_copies + 1)) - 1.0


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

