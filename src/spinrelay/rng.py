"""Reproducible random-number streams.

Every stochastic routine in this package draws its randomness through a
:class:`RandomStream`: a ``(seed, stream_id)`` value backed by the Philox
4x64 counter-based generator (Salmon et al., SC'11) as shipped with NumPy.
Philox output is a pure function of (key, counter), so the same
``(seed, stream_id)`` reproduces the identical variate sequence on every
platform, and distinct stream ids give statistically independent sequences
without any coordination between workers.

Substream ids are derived with the SplitMix64 mixing function
(Steele, Lea & Flood 2014), which makes any Monte Carlo partition
reproducible regardless of how many workers consume it: a cell's stream
depends only on its identity, never on scheduling order.

A chain of many trials runs in chunks: chunk 0 draws from the chain's
stream and chunk c >= 1 from its ``child(c)``, each from the start, so a
chunk's draws depend on its index and size only.  Every tilt sampler, of
:mod:`spinrelay.sphere`, :mod:`spinrelay.qubit` and :mod:`spinrelay.encoding`,
draws through one primitive, ``random(size)``, one double per Philox word.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15  # 2**64 / golden ratio, the SplitMix64 increment


def splitmix64(z: int) -> int:
    """One SplitMix64 finalizer step; a bijection on 64-bit integers."""
    z = (z + _GOLDEN_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class RandomStream:
    """Value-semantics handle on one reproducible variate sequence.

    Attributes
    ----------
    seed : int
        User-facing 64-bit seed shared by a whole run.
    stream_id : int
        64-bit substream selector; 0 is the root stream.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        """Materialize the stream as a stateful NumPy ``Generator``.

        Every call restarts the sequence from the beginning; the returned
        generator then advances as it is consumed.  The Philox key packs
        the seed in the low word and the stream id in the high word.
        """
        key = (self.seed & _MASK64) | ((self.stream_id & _MASK64) << 64)
        return np.random.Generator(np.random.Philox(key=key))

    def child(self, index: int) -> "RandomStream":
        """Derive the ``index``-th independent substream of this stream."""
        mixed = splitmix64((self.stream_id ^ splitmix64(index & _MASK64)) & _MASK64)
        return RandomStream(self.seed, mixed)
