"""Monte Carlo estimates, and the fold that builds them chunk by chunk."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo mean with its statistical contract.

    ``stderr`` is the sample standard deviation over sqrt(trials); it is
    None for trials = 1 where the spread is undefined.
    """

    mean: float
    stderr: float | None
    trials: int

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "McEstimate":
        fold = MomentFold(1)
        fold(0, np.asarray(samples, dtype=float).reshape(-1))
        return fold.estimate(0)

    def z_score(self, reference: float) -> float | None:
        """(mean - reference) / stderr, or None when stderr is undefined."""
        if self.stderr is None or self.stderr == 0.0:
            return None
        return (self.mean - reference) / self.stderr


class MomentFold:
    """Per-column count, mean and centred M2 of chunks of samples, merged in
    call order (Chan, Golub & LeVeque, Am. Stat. 37, 1983).  Each chunk is
    centred on its own mean: raw sums of squares cancel at a small spread.
    One chunk gives numpy's 1-D mean and std(ddof=1), bit for bit.  The
    squared deviations go through ``squares``, if given, else a new row."""

    def __init__(self, columns: int, squares=None):
        self.count = np.zeros(columns, dtype=np.int64)
        self.mean, self.m2 = np.zeros(columns), np.zeros(columns)
        self._squares = squares

    def __call__(self, column: int, overlaps: np.ndarray):
        """Merge the 1-D chunk ``overlaps`` into ``column``'s moments."""
        if not 0 <= column < self.mean.size:
            raise IndexError(f"column {column} out of range for {self.mean.size} columns")
        rows = overlaps.shape[0]
        if rows < 1:
            raise ValueError("need at least one sample")
        squares = np.empty(rows) if self._squares is None else self._squares[:rows]
        # overlaps.mean(), bit for bit, without its Python wrapper, which
        # costs more than the sum itself at few rows and many observers
        mean = np.add.reduce(overlaps) / rows
        np.subtract(overlaps, mean, out=squares)
        self._update(column, rows, mean, np.add.reduce(np.square(squares, out=squares)))

    def merge(self, other: "MomentFold"):
        """Merge ``other``, a fold of one chunk per column, into every column:
        bit for bit what folding that chunk here would give."""
        self._update(slice(None), other.count, other.mean, other.m2)

    def _update(self, at, rows, mean, m2):
        before = self.count[at]
        count = before + rows
        delta = mean - self.mean[at]
        self.mean[at] += delta * (rows / count)
        self.m2[at] += m2 + delta * delta * (before * rows / count)
        self.count[at] = count

    def estimate(self, column: int) -> McEstimate:
        n, m2 = int(self.count[column]), self.m2[column]
        stderr = float(np.sqrt(m2 / (n - 1)) / np.sqrt(n)) if n > 1 else None
        return McEstimate(mean=float(self.mean[column]), stderr=stderr, trials=n)
