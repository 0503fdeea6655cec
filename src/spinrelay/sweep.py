"""Batch Monte Carlo driver: analytic-vs-MC sweeps with statistical contracts.

Each (mode, N) gets its own content-derived substream and one chain on it,
whose prefixes give every requested k, so the output is byte-identical for
a fixed (config, seed) no matter how many workers run the chains' chunks.
Records carry the analytic value, the MC mean and standard error, the
z-score between them, and provenance fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
import csv
import io
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .laws import MODES, analytic_delta, chain_laws, optimal_tilde_delta, parallel_tilde_delta

if TYPE_CHECKING:  # numpy-backed; imported where a chain or an encoding runs
    from .records import McEstimate
    from .rng import RandomStream

FORMATS = ("csv", "jsonl")

RECORD_FIELDS = ("mode", "N", "k", "phi", "analytic", "mc_mean", "mc_stderr",
                 "z", "trials", "seed", "build")


@lru_cache(maxsize=1)
def build_id() -> str:
    """git-describe-style provenance string of the work tree that tracks
    this package's own files; ``spinrelay-<version>`` when none does, as
    when the package sits untracked under another work tree."""
    import subprocess
    here = Path(__file__).resolve()
    try:
        tracked = subprocess.run(
            ["git", "ls-files", "--error-unmatch", here.name],
            cwd=here.parent, capture_output=True, timeout=5)
        if tracked.returncode == 0:
            out = subprocess.run(
                ["git", "describe", "--always", "--dirty", "--tags"],
                cwd=here.parent, capture_output=True, text=True, timeout=5)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):  # no git, or a hung one
        pass
    from . import __version__
    return f"spinrelay-{__version__}"


#: most values an --n or --k range may hold, and most cells an analytic
#: or sweep grid may hold; 10^6 ints take about 36 MB
MAX_RANGE_VALUES = 10 ** 6


def check_grid(n_values, k_values, n_name: str, k_name: str):
    """Reject a grid of more than MAX_RANGE_VALUES cells before any is listed."""
    cells = len(n_values) * len(k_values)
    if cells > MAX_RANGE_VALUES:
        raise ValueError(f"{n_name} and {k_name}: {cells} cells, more than {MAX_RANGE_VALUES}")


@dataclass(frozen=True)
class SweepConfig:
    """One sweep: a mode crossed with N and k ranges at fixed trial count."""

    mode: str
    n_values: tuple = (1,)
    k_values: tuple = (1,)
    phi: float = 0.0
    trials: int = 100_000
    seed: int = 42
    fmt: str = "csv"
    z_max: float = 4.0
    workers: int = 1

    def validate(self, k_name: str = "k", trials_name: str = "trials", n_name: str = "n"):
        """Reject a config no sweep can run, naming N, k and trials as given."""
        if not self.n_values or not self.k_values:
            raise ValueError("N and k ranges must be non-empty")
        check_grid(self.n_values, self.k_values, n_name, k_name)
        # whether chain_laws accepts (N, k) depends on N and on k separately,
        # so a pass over k and one over N raise the first error of every cell
        for k in self.k_values:
            chain_laws(self.mode, self.n_values[0], k, self.phi)
        for n in self.n_values:
            chain_laws(self.mode, n, self.k_values[0], self.phi)
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        # a plain limit: it names an absurd k before a chain runs its k turns
        if max(self.k_values) * self.trials > 2 ** 60 - 1:
            raise ValueError(f"{k_name} {max(self.k_values)} with {trials_name} {self.trials}: "
                             f"more than 2^60 - 1 overlaps")
        if self.fmt not in FORMATS:
            raise ValueError(f"format must be one of {FORMATS}")
        if not self.z_max > 0:  # also rejects nan, which no |z| exceeds
            raise ValueError(f"z_max must be positive, got {self.z_max}")
        if not 0 <= self.seed < 2 ** 64:
            # RandomStream keeps the low 64 bits, so other seeds alias
            raise ValueError(f"seed must lie in [0, 2^64), got {self.seed}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


def mc_estimate_delta(mode: str, n_spins: int, k_values, phi: float, trials: int,
                      rng: RandomStream, overlap: str = "estimate",
                      measure=None) -> list[McEstimate]:
    """Monte Carlo estimates of observer k's shrink factor (or of the overlap
    it hands on) for each k of ``k_values``, folded observer by observer from
    one chain of length max(k), whose first j columns are the length-j chain,
    into one slot per distinct k; ``measure`` is the chain's tilt sampler."""
    from .encoding import _chain, _run_units
    k_values = tuple(k_values)
    [fold] = _run_units([lambda: _chain(n_spins, k_values, mode, rng, trials, phi, overlap,
                                        measure)], trials)
    return _estimates(fold, k_values)


def _estimates(fold, k_values) -> list[McEstimate]:
    """Each k's estimate from the fold of ``encoding._chain(n, k_values, ...)``."""
    slots = {k: slot for slot, k in enumerate(dict.fromkeys(k_values))}
    return [fold.estimate(slots[k]) for k in k_values]


def _cell_stream(cfg: SweepConfig, n_spins: int) -> RandomStream:
    from .rng import RandomStream
    # content-derived: the same (mode, N) gets the same stream in any config
    return RandomStream(cfg.seed).child(MODES.index(cfg.mode)).child(n_spins).child(1)


def run_sweep(cfg: SweepConfig) -> list[dict]:
    """All records of a sweep, in deterministic (N, k) order.

    Each distinct N is one chain that serves every k and every repeat of
    that N.  Its chunks are the units of work: they run on this thread and
    plain threads, ``workers`` in all and at most one per chunk
    (``encoding._run_units``), and the records never depend on scheduling.
    """
    cfg.validate()
    from .encoding import _chain, _run_units

    n_distinct = list(dict.fromkeys(cfg.n_values))
    set_ups = [lambda n=n: _chain(n, cfg.k_values, cfg.mode, _cell_stream(cfg, n), cfg.trials,
                                  cfg.phi, "estimate")
               for n in n_distinct]
    estimates = {n: _estimates(fold, cfg.k_values)
                 for n, fold in zip(n_distinct, _run_units(set_ups, cfg.trials, cfg.workers))}

    bid = build_id()
    phi = cfg.phi if cfg.mode == "single_qubit" else None
    records = []
    for n in cfg.n_values:
        for k, est in zip(cfg.k_values, estimates[n]):
            if est.stderr is None:
                print(f"warning: trials=1 leaves mc_stderr undefined for cell "
                      f"(mode={cfg.mode}, N={n}, k={k})", file=sys.stderr)
            ref = analytic_delta(cfg.mode, n, k, cfg.phi)
            records.append(dict(zip(RECORD_FIELDS, (
                cfg.mode, n, k, phi, ref, est.mean, est.stderr, est.z_score(ref),
                est.trials, cfg.seed, bid))))
    return records


def max_abs_z(records: list[dict]) -> float:
    zs = [abs(r["z"]) for r in records if r["z"] is not None]
    return max(zs) if zs else 0.0


def records_to_bytes(records: list[dict], fmt: str,
                     fields: tuple[str, ...] = RECORD_FIELDS) -> bytes:
    """The ``fields`` of records as RFC-4180 CSV (17 significant digits) or
    JSONL, UTF-8 encoded: the one writer of every subcommand."""
    buf = io.StringIO(newline="")
    if fmt == "csv":
        writer = csv.writer(buf)
        writer.writerow(fields)
        # csv writes None as an empty field; floats keep 17 significant digits
        writer.writerows([f"{rec[f]:.17g}" if isinstance(rec[f], float) else rec[f]
                          for f in fields] for rec in records)
    elif fmt == "jsonl":
        buf.writelines(json.dumps({f: rec[f] for f in fields}) + "\n" for rec in records)
    else:
        raise ValueError(f"format must be one of {FORMATS}")
    return buf.getvalue().encode()


_PLOT_TEMPLATE = '''#!/usr/bin/env python3
"""Plot MC shrink factors against the closed forms from a sweep CSV."""
import csv
from collections import defaultdict

import matplotlib.pyplot as plt

CSV_PATH = {csv_path!r}

rows = list(csv.DictReader(open(CSV_PATH, newline="")))
by_n = defaultdict(list)
for row in rows:
    by_n[int(row["N"])].append(row)

fig, ax = plt.subplots()
for n, group in sorted(by_n.items()):
    ks = [int(r["k"]) for r in group]
    ax.plot(ks, [float(r["analytic"]) for r in group], "-", label=f"N={{n}} analytic")
    means = [float(r["mc_mean"]) for r in group]
    errs = [3 * float(r["mc_stderr"]) if r["mc_stderr"] else 0.0 for r in group]
    ax.errorbar(ks, means, yerr=errs, fmt="o", capsize=3, label=f"N={{n}} MC (3 s.e.)")
ax.set_xlabel("observer k")
ax.set_ylabel("shrink factor")
ax.set_title(rows[0]["mode"] if rows else "sweep")
ax.legend()
fig.savefig(CSV_PATH + ".png", dpi=150)
print("wrote", CSV_PATH + ".png")
'''


def write_plot_script(csv_path: str, script_path: str) -> None:
    """Emit a standalone plotting script referencing ``csv_path``.

    The harness never renders images itself; this script is the delegated
    way to visualize a sweep.
    """
    Path(script_path).write_text(_PLOT_TEMPLATE.format(csv_path=csv_path))


def emit_encoding(n_spins: int) -> dict:
    """Serializable description of the optimal encoding for ``n_spins``.

    ``optimal_tilde_delta`` is also the top eigenvalue of the encoding's
    Jacobi matrix.
    """
    from .encoding import optimal_encoding
    return {
        "N": n_spins,
        "phi": [float(c) for c in optimal_encoding(n_spins).phi],
        "parallel_tilde_delta": parallel_tilde_delta(n_spins),
        "optimal_tilde_delta": optimal_tilde_delta(n_spins),
        "build": build_id(),
    }
