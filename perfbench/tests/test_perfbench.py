"""Tests of the benchmark itself, at tiny trial counts.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run
import tracer as tr
from checks import check_run
from workloads import WORKLOADS

TINY = {name: dataclasses.replace(w, trials=2000) for name, w in WORKLOADS.items()}
BENCHMARK_JSON = run.ROOT / "BENCHMARK.json"


def result_of(capsys, name, trace, seed=42):
    assert run.main(["--workload", name, "--seed", str(seed), "--seconds", "0",
                     "--trace", str(trace)], workloads=TINY) == 0
    lines = capsys.readouterr().out.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def traced_spans(workload, seed=42):
    out = subprocess.run(
        [sys.executable, str(run.HERE / "traced_sweep.py"), "1", "--"]
        + workload.sweep_args(seed), env=run.child_env(), cwd=run.ROOT,
        capture_output=True, check=True)
    return json.loads(out.stdout.decode().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_printed_with_its_unit(capsys, name, trace):
    detail, result = result_of(capsys, name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], detail["problems"]
    defs = run.BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in defs]
    for m in defs:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float))
    assert result["attempted"] == len(TINY[name].cells())
    assert set(detail["environment"]) == {"python", "numpy", "cpu_count", "build_id",
                                          "git_commit", "loadavg_start"}
    assert result["failed"] == (1 if name == "qubit_chain" else 0)


def test_failure_check_flags_the_phi_half_pi_first_cell():
    workload = TINY["qubit_chain"]
    child = run.run_child(run.cli_argv(workload.sweep_args(7)), run.child_env())
    check = check_run(workload, 7, child.returncode, child.stdout, child.stderr, None)
    assert check.correct, check.problems
    assert check.failed == {(1, 1)}
    again = check_run(workload, 7, child.returncode, child.stdout, child.stderr,
                      child.stdout)
    assert again.failed == {(1, 1)} and again.correct
    # a cell counts once per invocation, however many runs repeat it
    tally = run.Tally(workload, 7)
    for _ in range(3):
        tally.add(child.returncode, child.stdout, child.stderr)
    assert (tally.attempted, tally.failed, tally.problems) == (6, 1, [])


def test_failure_check_catches_lost_changed_and_crashed_output():
    workload = TINY["optimal_tables"]
    child = run.run_child(run.cli_argv(workload.sweep_args(3)), run.child_env())
    lines = child.stdout.splitlines(keepends=True)
    missing = check_run(workload, 3, 0, b"".join(lines[:-1]), b"", None)
    assert missing.failed == {(280, 1)} and not missing.correct
    changed = check_run(workload, 3, 0, child.stdout, b"",
                        b"".join(lines[:-1] + [lines[-1].replace(b",1,", b",1,9")]))
    assert changed.failed == {(280, 1)} and not changed.correct
    crashed = check_run(workload, 3, 1, b"", b"Traceback (most recent call last):", None)
    assert len(crashed.failed) == 4 and not crashed.correct


@pytest.mark.parametrize("name", ["qubit_chain", "optimal_grid"])
def test_traced_spans_nest(name):
    spans = traced_spans(TINY[name])["spans"]
    by_id = {s["id"]: s for s in spans}
    selfs = tr.self_times(spans)
    roots = [s for s in spans if s["parent"] is None]
    assert [s["name"] for s in roots] == ["cli.main"]
    for s in spans:
        assert -1e-9 <= selfs[s["id"]] <= s["end"] - s["start"] + 1e-12
        if s["parent"] is not None:
            parent = by_id[s["parent"]]
            assert parent["start"] <= s["start"] <= s["end"] <= parent["end"]
    cells = [s for s in spans if s["name"] == "sweep.mc_estimate_delta"]
    assert len(cells) == len(TINY[name].cells())
    assert all(by_id[c["parent"]]["name"] == "sweep.run_sweep" for c in cells)
    if TINY[name].workers > 1:
        assert len({c["thread"] for c in cells}) > 1


def test_work_counts_follow_the_request():
    metrics = tr.layer_metrics(traced_spans(TINY["optimal_grid"])["spans"])
    assert metrics["encoding.outcome_density.calls"] == 60
    assert metrics["encoding.density_reuse"] == pytest.approx(1 / 3)
    assert metrics["encoding.chain_dots_nspin.trial_steps"] == 2000 * 20 * (1 + 2 + 3)
    metrics = tr.layer_metrics(traced_spans(TINY["qubit_chain"])["spans"])
    assert metrics["qubit.chain_dots_single.trial_steps"] == 2000 * 21
    assert metrics["qubit.useful_step_share"] == pytest.approx(6 / 21)
    assert metrics["sphere.rotate_towards.rows"] == 2000 * 21 * 2


def test_missing_names_are_skipped_and_hooks_undone():
    from spinrelay import records, sweep
    before = (sweep.mc_estimate_delta, records.McEstimate.__dict__["from_samples"])
    tracer = tr.Tracer()
    undo = tr.install(tracer, {**tr.HOOKS, "sweep.gone": (("spinrelay.sweep:gone",), None)})
    try:
        assert sweep.mc_estimate_delta is not before[0]
        assert isinstance(records.McEstimate.__dict__["from_samples"], classmethod)
    finally:
        undo()
    assert (sweep.mc_estimate_delta, records.McEstimate.__dict__["from_samples"]) == before
    with tracer.span("cli.main"), tracer.span("sweep.run_sweep") as counts:
        counts["workers"] = 1
        with tracer.span("sweep.mc_estimate_delta"):
            pass
    metrics = tr.layer_metrics(tracer.spans)
    assert metrics["sweep.mc_estimate_delta.calls"] == 1
    assert metrics["sphere.rotate_towards.calls"] == 0
    assert metrics["qubit.useful_step_share"] == 1.0
    # driver spans alone attribute nothing to a layer
    assert metrics["trace.coverage_share"] == 0.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "qubit_chain",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert "{" not in out.stdout


def test_benchmark_json_names_the_workloads():
    spec = run.BENCHMARK
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
