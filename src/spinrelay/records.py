"""Result container of a Monte Carlo estimate."""

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
        samples = np.asarray(samples, dtype=float)
        n = samples.size
        if n < 1:
            raise ValueError("need at least one sample")
        mean = float(samples.mean())
        stderr = float(samples.std(ddof=1) / np.sqrt(n)) if n > 1 else None
        return cls(mean=mean, stderr=stderr, trials=n)

    def z_score(self, reference: float) -> float | None:
        """(mean - reference) / stderr, or None when stderr is undefined."""
        if self.stderr is None or self.stderr == 0.0:
            return None
        return (self.mean - reference) / self.stderr
