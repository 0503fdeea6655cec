"""The tilt law of N parallel copies: the scalar chain's "parallel" sampler,
drawn through ``random(size, out=out)`` alone from the ``Generator`` it is given."""

from __future__ import annotations

import numpy as np


def sample_cos_tilt(gen, n_copies: int, size: int, out=None):
    """Sample ``size`` cosines of the tilt between estimate and encoded direction.

    For an ensemble of ``n_copies`` identical copies measured with the
    uniform-prior-optimal POVM the tilt cosine has density
    (N+1) ((1+x)/2)^N / 2, with CDF ((1+x)/2)^(N+1) and mean N/(N+2).
    Sampling is by the exact inverse CDF, x = 2 u^(1/(N+1)) - 1 with u
    uniform on (0, 1]; u = 1 maps to x = 1 exactly.  A float ``out`` of
    ``size`` rows receives the draw and every step, and is returned.
    """
    if n_copies < 1:
        raise ValueError(f"n_copies must be >= 1, got {n_copies}")
    u = gen.random(size, out=out)
    np.subtract(1.0, u, out=u)  # gen.random is [0,1) -> u in (0,1]
    u **= 1.0 / (n_copies + 1)
    u *= 2.0
    u -= 1.0
    return u
