"""Correctness and failure accounting for one sweep run's records.

A cell fails when it is missing, when its |z| exceeds z-max (or z is
absent), or when its record differs from the first run with the same seed.
A run that crashes fails every cell.  Failures other than the z-gate also
make the run incorrect: they mean the program lost, invented or changed
output, not that a statistical contract was missed.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

from workloads import Z_MAX, Workload

RECORD_FIELDS = ("mode", "N", "k", "phi", "analytic", "mc_mean", "mc_stderr",
                 "z", "trials", "seed", "build")


@dataclass
class RunCheck:
    cells: int
    failed: set = field(default_factory=set)       # (N, k) of failed cells
    problems: list = field(default_factory=list)   # reasons the run is incorrect
    inv_var: float = 0.0                           # sum over cells of 1/stderr^2

    @property
    def correct(self) -> bool:
        return not self.problems


def parse_records(payload: bytes) -> dict:
    """Map (N, k) -> CSV row (a dict); raises ValueError on malformed output."""
    rows = list(csv.reader(io.StringIO(payload.decode())))
    if not rows or tuple(rows[0]) != RECORD_FIELDS:
        raise ValueError("missing or unexpected CSV header")
    cells = {}
    for raw in rows[1:]:
        if len(raw) != len(RECORD_FIELDS):
            raise ValueError(f"malformed record {raw!r}")
        rec = dict(zip(RECORD_FIELDS, raw))
        key = (int(rec["N"]), int(rec["k"]))
        if key in cells:
            raise ValueError(f"duplicate cell {key}")
        cells[key] = rec
    return cells


def check_run(workload: Workload, seed: int, returncode: int | None,
              stdout: bytes, stderr: bytes, reference: bytes | None) -> RunCheck:
    """Judge one run; ``reference`` is the first run's output for this seed."""
    expected = workload.cells()
    check = RunCheck(cells=len(expected))
    if returncode not in (0, 1) or b"Traceback" in stderr:
        check.failed.update(expected)
        check.problems.append(f"crashed with exit code {returncode}")
        return check
    try:
        got = parse_records(stdout)
        ref = parse_records(reference) if reference is not None else None
    except ValueError as exc:
        check.failed.update(expected)
        check.problems.append(f"unparseable records: {exc}")
        return check

    if set(got) - set(expected):
        check.problems.append(f"unrequested cells {sorted(set(got) - set(expected))}")
    z_gate_failed = False
    for cell in expected:
        rec = got.get(cell)
        if rec is None:
            check.failed.add(cell)
            check.problems.append(f"missing cell {cell}")
            continue
        if (rec["mode"], rec["trials"], rec["seed"]) != (
                workload.mode, str(workload.trials), str(seed)):
            check.failed.add(cell)
            check.problems.append(f"cell {cell} carries the wrong mode, trials or seed")
        if ref is not None and ref.get(cell) != rec:
            check.failed.add(cell)
            check.problems.append(f"cell {cell} differs from the first run")
        if not rec["z"] or abs(float(rec["z"])) > Z_MAX:
            check.failed.add(cell)
            z_gate_failed = True
        if rec["mc_stderr"] and float(rec["mc_stderr"]) > 0.0:
            check.inv_var += 1.0 / float(rec["mc_stderr"]) ** 2
    if returncode != int(z_gate_failed):
        check.problems.append(
            f"exit code {returncode} disagrees with the z-gate (failed: {z_gate_failed})")
    return check
