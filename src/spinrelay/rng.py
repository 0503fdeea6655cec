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

Because Philox is counter-based, a block of rows can also read its own
draws straight from their place in the stream: a :class:`StreamRows` view
gives rows [lo, hi) of a batch of ``total`` rows exactly the whole
batch's draws.  Every sampler of :mod:`spinrelay.sphere` and
:mod:`spinrelay.encoding` draws through one primitive, ``random(size)``,
one double per Philox word, from whichever Generator or view it is given.
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
        return np.random.Generator(self._philox())

    def _philox(self) -> np.random.Philox:
        key = (self.seed & _MASK64) | ((self.stream_id & _MASK64) << 64)
        return np.random.Philox(key=key)

    def child(self, index: int) -> "RandomStream":
        """Derive the ``index``-th independent substream of this stream."""
        mixed = splitmix64((self.stream_id ^ splitmix64(index & _MASK64)) & _MASK64)
        return RandomStream(self.seed, mixed)


class StreamRows:
    """Stands in for ``stream.generator()`` on rows [lo, hi) of a batch of
    ``total`` rows that draws ``total`` doubles per fill.

    Its j-th ``random`` fill, of size hi - lo, returns rows [lo, hi) of
    the j-th ``total``-long ``random`` fill of the generator.  One 64-bit
    Philox word gives one double, and counter c yields words 4c .. 4c + 3,
    so that fill starts at word w = j total + lo: the view's one Philox is
    reset to the stream's start, ``advance(w // 4)``, then ``w % 4`` words
    discarded.  A fill of any other size raises ``ValueError``, since the
    caller's layout would not be the batch's.
    """

    def __init__(self, stream: RandomStream, lo: int, hi: int, total: int):
        if not 0 <= lo < hi <= total:
            raise ValueError(f"need 0 <= lo < hi <= total, got {lo}, {hi}, {total}")
        self.lo, self.hi, self.total = lo, hi, total
        self._fills = 0
        self._bits = stream._philox()
        self._start = self._bits.state
        self._gen = np.random.Generator(self._bits)

    def skip(self, fills: int):
        """Pass over the next ``fills`` fills without generating them; the
        fills after them keep their words, as each is placed by its count."""
        if fills < 0:
            raise ValueError(f"cannot skip a negative number of fills, got {fills}")
        self._fills += fills

    def random(self, size) -> np.ndarray:
        if size != self.hi - self.lo:
            raise ValueError(f"rows [{self.lo}, {self.hi}) take fills of size "
                             f"{self.hi - self.lo}, got {size!r}")
        word = self._fills * self.total + self.lo
        self._fills += 1
        self._bits.state = self._start
        self._bits.advance(word // 4)
        self._bits.random_raw(word % 4)
        return self._gen.random(size)
