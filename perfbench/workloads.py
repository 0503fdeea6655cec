"""The benchmark's workloads: CLI sweeps whose shape is fixed by design.

Each workload is one ``spinrelay sweep`` command line.  The expected grid of
(N, k) cells is spelled out here as plain tuples, independent of the
program's own range parser, so a parser bug shows up as missing cells.
"""

from __future__ import annotations

from dataclasses import dataclass

Z_MAX = 4.0
PHI_HALF_PI = "1.5707963267948966"


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    n_text: str                 # --n as a user types it
    k_text: str                 # --k as a user types it
    n_values: tuple[int, ...]   # the grid that text must expand to
    k_values: tuple[int, ...]
    trials: int
    workers: int
    phi: str | None = None      # --phi, single_qubit only

    def cells(self) -> list[tuple[int, int]]:
        return [(n, k) for n in self.n_values for k in self.k_values]

    def observer_steps(self) -> int:
        """Observer steps the request asks for: sum over cells of trials * k."""
        return sum(self.trials * k for _, k in self.cells())

    def _grid_args(self) -> list[str]:
        args = ["--mode", self.mode, "--n", self.n_text, "--k", self.k_text]
        if self.phi is not None:
            args += ["--phi", self.phi]
        return args

    def sweep_args(self, seed: int, workers: int | None = None) -> list[str]:
        """``spinrelay`` arguments of the timed sweep; records go to stdout."""
        return (["sweep"] + self._grid_args()
                + ["--trials", str(self.trials), "--seed", str(seed),
                   "--workers", str(self.workers if workers is None else workers),
                   "--z-max", repr(Z_MAX), "--format", "csv", "--out", "-"])

    def analytic_args(self) -> list[str]:
        """``spinrelay`` arguments of the set-up probe: same mode, N and k."""
        return ["analytic"] + self._grid_args() + ["--format", "csv", "--out", "-"]


WORKLOADS = {w.name: w for w in (
    # The 3-D trajectory kernel: rotate_towards plus Philox draws.  Per-k
    # cells re-simulate every prefix (21 steps simulated for 6 needed), and
    # phi = pi/2 sends every step through the Kraus re-preparation path.
    # The k=1 cell fails its z-gate in spinrelay 0.1.0: at phi != 0 the sweep
    # compares the estimate overlap with the prepared-state law.  That known
    # defect stays visible as a failed cell.
    Workload("qubit_chain", "single_qubit", "1", "1..6", (1,), tuple(range(1, 7)),
             trials=300_000, workers=1, phi=PHI_HALF_PI),
    # The lazy inverse-CDF table build in OutcomeDensity dominates; four N
    # span two grid doublings.  N >= 800 is left out because its table
    # refinement aborts with a RuntimeError.
    Workload("optimal_tables", "nspin_optimal", "160,200,240,280", "1",
             (160, 200, 240, 280), (1,), trials=10_000, workers=1),
    # Many small cells over two worker threads: per-N density rebuilds
    # (60 builds for 20 distinct N), cell granularity and cross-cell
    # parallelism show only here.
    Workload("optimal_grid", "nspin_optimal", "2..40..2", "1..3",
             tuple(range(2, 41, 2)), (1, 2, 3), trials=100_000, workers=2),
)}
