"""spinrelay benchmark: CLI sweep workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.

``--trace 0`` times fresh ``python -m spinrelay.cli sweep`` processes,
back to back while another fits in S seconds, reading wall time, CPU and
peak RSS of each from ``os.wait4``.  Before each sweep, fresh ``spinrelay
analytic`` processes over the same grid measure set-up time.  Metrics are
medians over the repetitions.

``--trace 1`` alternates untraced and traced in-process runs of
``spinrelay.cli.main`` (traced_sweep.py) the same way and reports the
per-layer metrics of tracer.py, as medians over the traced runs.

Either way every run's records are checked (checks.py), and a
multi-worker workload is also run once on one worker to check that the
output is byte-identical.  Stdout carries one JSON line describing the
environment and the samples, then the result as the last line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from checks import check_run
from tracer import layer_metrics
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# metric names and units; what each one should move is in metrics.py
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
CHILD_TIMEOUT_S = 60.0
MIN_SETUP_SAMPLES = 10
SETUPS_PER_SWEEP = 2


@dataclass
class Child:
    returncode: int | None
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # the sweep's own worker threads are the only parallelism allowed
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv: list[str], env: dict) -> Child:
    """Run one process to completion and read its resource use from wait4."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, out, err[0], wall,
                 usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "spinrelay.cli"] + args


def environment() -> dict:
    import numpy
    from spinrelay.sweep import build_id
    try:
        loadavg = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        loadavg = None
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "cpu_count": os.cpu_count(), "build_id": build_id(), "git_commit": commit,
            "loadavg_start": loadavg}


class Tally:
    """Failure accounting across the runs of one invocation.

    The operations are the cells of the requested grid.  Each is attempted
    once per invocation and fails if it fails in any run, so ``attempted``
    and ``failed`` depend on the seed alone, not on how many repetitions
    fit in the time window.
    """

    def __init__(self, workload: Workload, seed: int):
        self.workload, self.seed = workload, seed
        self.attempted = len(workload.cells())
        self.failed_cells: set = set()
        self.problems: list[str] = []
        self.reference: bytes | None = None
        self.inv_var = 0.0

    @property
    def failed(self) -> int:
        return len(self.failed_cells)

    def add(self, returncode, stdout: bytes, stderr: bytes) -> None:
        check = check_run(self.workload, self.seed, returncode, stdout, stderr,
                          self.reference)
        if self.reference is None and check.correct:
            self.reference, self.inv_var = stdout, check.inv_var
        self.failed_cells |= check.failed
        self.problems += check.problems

    def check_workers(self, single_worker: bytes | None) -> None:
        """Output must not depend on the worker count."""
        if single_worker is not None and single_worker != self.reference:
            self.problems.append("output differs between --workers "
                                 f"{self.workload.workers} and --workers 1")

    def check_setup(self, child: Child) -> None:
        rows = child.stdout.decode().splitlines()
        if child.returncode != 0 or len(rows) != len(self.workload.cells()) + 1:
            self.problems.append(f"analytic exited {child.returncode} with {len(rows)} lines")


def single_worker_output(workload: Workload, seed: int, env: dict) -> bytes | None:
    """Records of the sweep on one worker, for a multi-worker workload."""
    if workload.workers == 1:
        return None
    return run_child(cli_argv(workload.sweep_args(seed, workers=1)), env).stdout


def repeat(step, deadline: float) -> None:
    """Call ``step`` back to back while one more call is expected to end
    before ``deadline``; always at least once."""
    durations = []
    while not durations or time.perf_counter() + statistics.median(durations) <= deadline:
        start = time.perf_counter()
        step()
        durations.append(time.perf_counter() - start)


def measure_end_to_end(workload: Workload, seed: int, seconds: float,
                       tally: Tally) -> tuple[dict, dict]:
    """(raw samples, end-to-end metrics) of fresh CLI processes."""
    env = child_env()
    deadline = time.perf_counter() + seconds
    single = single_worker_output(workload, seed, env)
    sweeps, setups = [], []

    def step():
        for _ in range(SETUPS_PER_SWEEP):
            setups.append(run_child(cli_argv(workload.analytic_args()), env))
        sweep = run_child(cli_argv(workload.sweep_args(seed)), env)
        tally.add(sweep.returncode, sweep.stdout, sweep.stderr)
        sweeps.append(sweep)

    repeat(step, deadline)
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(run_child(cli_argv(workload.analytic_args()), env))
    for setup in setups:
        tally.check_setup(setup)
    tally.check_workers(single)

    wall = statistics.median(s.wall_s for s in sweeps)
    samples = {"sweep_wall_s": [s.wall_s for s in sweeps],
               "setup_s": [s.wall_s for s in setups]}
    return samples, {
        "wall_s": wall,
        "observer_steps_per_s": workload.observer_steps() / wall,
        "cpu_s": statistics.median(s.cpu_s for s in sweeps),
        "peak_rss_mb": statistics.median(s.peak_rss_mb for s in sweeps),
        "setup_s": statistics.median(s.wall_s for s in setups),
        "cell_pass_share": 1.0 - tally.failed / tally.attempted,
    }


def measure_traced(workload: Workload, seed: int, seconds: float,
                   tally: Tally) -> tuple[dict, dict]:
    """(raw samples, per-layer metrics) of in-process runs, traced and not."""
    env = child_env()
    deadline = time.perf_counter() + seconds
    single = single_worker_output(workload, seed, env)
    script = [sys.executable, str(HERE / "traced_sweep.py")]
    walls = {"0": [], "1": []}
    layers = []

    def step():
        for traced in ("0", "1"):
            child = run_child(script + [traced, "--"] + workload.sweep_args(seed), env)
            try:
                result = json.loads(child.stdout.decode().splitlines()[-1])
            except (IndexError, ValueError):
                tally.add(None, b"", child.stderr)
                continue
            tally.add(result["returncode"], result["stdout"].encode(),
                      result["stderr"].encode())
            walls[traced].append(result["wall_s"])
            if traced == "1":
                layers.append(layer_metrics(result["spans"]))

    repeat(step, deadline)
    tally.check_workers(single)
    if not layers or not walls["0"]:
        tally.problems.append("no untraced and traced pair of runs completed")
        return walls, {m["name"]: 0.0 for m in BENCHMARK["per_layer"]}

    untraced = statistics.median(walls["0"])
    # counts stay whole numbers; they repeat exactly from run to run anyway
    metrics = {name: (statistics.median_low if isinstance(value, int) else statistics.median)(
                   run[name] for run in layers)
               for name, value in layers[0].items()}
    metrics["trace.overhead_share"] = statistics.median(walls["1"]) / untraced - 1.0
    metrics["sweep.failed_cell_share"] = tally.failed / tally.attempted
    metrics["sweep.inv_var_per_s"] = tally.inv_var / untraced
    return walls, metrics


def main(argv=None, workloads: dict = WORKLOADS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "spinrelay" / "cli.py").is_file():
        print(f"error: no spinrelay sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = workloads[args.workload]
    env_block = environment()
    tally = Tally(workload, args.seed)
    measure, defs = ((measure_traced, BENCHMARK["per_layer"]) if args.trace
                     else (measure_end_to_end, BENCHMARK["end_to_end"]))
    samples, metrics = measure(workload, args.seed, args.seconds, tally)
    print(json.dumps({"workload": workload.name, "seed": args.seed, "trace": args.trace,
                      "environment": env_block, "samples": samples,
                      "problems": tally.problems[:20]}))
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in defs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
