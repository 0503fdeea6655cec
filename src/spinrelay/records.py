"""Monte Carlo estimates, and the fold that builds them block by block."""

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
        fold(np.asarray(samples, dtype=float).reshape(-1, 1))
        return fold.estimate(0)

    def z_score(self, reference: float) -> float | None:
        """(mean - reference) / stderr, or None when stderr is undefined."""
        if self.stderr is None or self.stderr == 0.0:
            return None
        return (self.mean - reference) / self.stderr


class MomentFold:
    """Per-column count, mean and centred M2 of (rows, columns) blocks, merged
    in call order (Chan, Golub & LeVeque, Am. Stat. 37, 1983).  Each block is
    centred on its own mean: raw sums of squares cancel at a small spread.
    One column-major block gives numpy's 1-D mean and std(ddof=1), bit for bit.
    The squared deviations of one column at a time go through one reused
    buffer, so a fold of blocks no longer than the first allocates nothing
    of a block's size."""

    def __init__(self, columns: int):
        self.count, self.mean, self.m2 = 0, np.zeros(columns), np.zeros(columns)
        self._squares = np.empty(0)

    def __call__(self, block: np.ndarray):
        rows, count = block.shape[0], self.count + block.shape[0]
        if rows < 1:
            raise ValueError("need at least one sample")
        if self._squares.size < rows:
            self._squares = np.empty(rows)
        squares, sums = self._squares[:rows], np.empty(block.shape[1])
        mean = block.mean(axis=0)
        for column, centre in enumerate(mean):
            np.subtract(block[:, column], centre, out=squares)
            sums[column] = np.square(squares, out=squares).sum()
        delta = mean - self.mean
        self.mean += delta * (rows / count)
        self.m2 += sums + delta * delta * (self.count * rows / count)
        self.count = count

    def estimate(self, column: int) -> McEstimate:
        n, m2 = self.count, self.m2[column]
        stderr = float(np.sqrt(m2 / (n - 1)) / np.sqrt(n)) if n > 1 else None
        return McEstimate(mean=float(self.mean[column]), stderr=stderr, trials=n)
