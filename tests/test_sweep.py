"""Sweep harness: analytic columns, MC cells, output formats, CLI."""

import csv
import io
import json
import math
import os
from pathlib import Path
import shutil
import subprocess
import sys

import numpy as np
import pytest

import spinrelay
from spinrelay.cli import MAX_RANGE_VALUES, main, parse_config_file, parse_int_range
from spinrelay.encoding import MODES, OutcomeDensity, analytic_delta
from spinrelay.records import McEstimate
from spinrelay.rng import RandomStream
from spinrelay.sweep import (
    RECORD_FIELDS,
    SweepConfig,
    build_id,
    emit_encoding,
    max_abs_z,
    mc_estimate_delta,
    records_to_bytes,
    run_sweep,
)


class TestAnalyticColumn:
    def test_single_qubit_decay(self):
        values = [analytic_delta("single_qubit", 1, k, 0.0) for k in range(1, 5)]
        np.testing.assert_allclose(values, [1 / 3, 1 / 9, 1 / 27, 1 / 81], rtol=1e-14)

    def test_parallel_four_spins(self):
        values = [analytic_delta("nspin_parallel", 4, k) for k in (1, 2)]
        np.testing.assert_allclose(values, [2 / 3, 4 / 9], rtol=1e-14)

    def test_optimal_and_mixed(self):
        x = 1 / math.sqrt(3)
        assert analytic_delta("nspin_optimal", 2, 2) == pytest.approx(x * x, rel=1e-13)
        assert analytic_delta("parallel_start", 2, 2) == pytest.approx(0.5 * x, rel=1e-13)

    def test_kraus_offset(self):
        assert analytic_delta("single_qubit", 1, 2, math.pi) == pytest.approx(1 / 9, rel=1e-13)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            analytic_delta("qutrit", 1, 1)


class TestMcEstimate:
    def test_from_samples(self):
        samples = np.array([0.5, 0.1, -0.2, 0.4])
        est = McEstimate.from_samples(samples, seed=7)
        assert est.mean == pytest.approx(samples.mean())
        assert est.stderr == pytest.approx(samples.std(ddof=1) / 2.0)
        assert est.trials == 4 and est.seed == 7
        assert est.z_score(0.0) == pytest.approx(est.mean / est.stderr)

    def test_single_trial_has_no_stderr(self):
        est = McEstimate.from_samples(np.array([0.3]), seed=1)
        assert est.stderr is None
        assert est.z_score(0.0) is None

    def test_cell_estimates(self):
        est = mc_estimate_delta("single_qubit", 1, 1, 0.0, 100_000, RandomStream(42))
        assert abs(est.mean - 1 / 3) < 3 * est.stderr
        est = mc_estimate_delta("nspin_optimal", 2, 1, 0.0, 100_000, RandomStream(43))
        assert abs(est.mean - 1 / math.sqrt(3)) < 3 * est.stderr

    def test_cell_deterministic(self):
        a = mc_estimate_delta("nspin_parallel", 4, 2, 0.0, 2000, RandomStream(5))
        b = mc_estimate_delta("nspin_parallel", 4, 2, 0.0, 2000, RandomStream(5))
        assert a == b


class TestRunSweep:
    def test_record_layout_and_provenance(self):
        cfg = SweepConfig(mode="nspin_parallel", n_values=(2, 4), k_values=(1, 2),
                          trials=2000, seed=9)
        records = run_sweep(cfg)
        assert len(records) == 4
        assert [tuple(r) for r in records] == [RECORD_FIELDS] * 4
        for rec in records:
            assert rec["seed"] == 9 and rec["trials"] == 2000
            assert rec["build"] == build_id() and rec["build"]
            assert rec["phi"] is None  # not a single-qubit sweep
        # deterministic (N, k) ordering
        assert [(r["N"], r["k"]) for r in records] == [(2, 1), (2, 2), (4, 1), (4, 2)]

    def test_default_contract_seed_42(self):
        # representative sweep cells at the default 1e5 trials, seed 42:
        # every |z| stays below the default gate of 4
        sweeps = [
            SweepConfig("single_qubit", (1,), (1, 2, 3, 4), phi=0.0),
            SweepConfig("nspin_parallel", (2, 4, 10), (1, 2)),
            SweepConfig("nspin_optimal", (2, 4), (1, 2)),
            SweepConfig("parallel_start", (4,), (2,)),
        ]
        for cfg in sweeps:
            records = run_sweep(cfg)
            assert max_abs_z(records) <= 4.0, f"{cfg.mode}: z gate exceeded"

    def test_byte_identical_across_runs_and_workers(self):
        cfg = dict(mode="single_qubit", n_values=(1,), k_values=(1, 2), trials=5000)
        base = records_to_bytes(run_sweep(SweepConfig(**cfg)), "csv")
        again = records_to_bytes(run_sweep(SweepConfig(**cfg)), "csv")
        threaded = records_to_bytes(run_sweep(SweepConfig(**cfg, workers=4)), "csv")
        assert base == again == threaded

    def test_csv_dialect(self):
        cfg = SweepConfig(mode="single_qubit", n_values=(1,), k_values=(1,), trials=2000)
        payload = records_to_bytes(run_sweep(cfg), "csv")
        assert payload.count(b"\r\n") == 2  # RFC-4180 line endings, header + 1 row
        header = payload.split(b"\r\n")[0].decode()
        assert header == ",".join(RECORD_FIELDS)
        row = next(csv.DictReader(io.StringIO(payload.decode())))
        assert row["analytic"] == f"{1/3:.17g}"  # 17 significant digits

    def test_jsonl_round_trip(self):
        cfg = SweepConfig(mode="nspin_optimal", n_values=(2,), k_values=(1,),
                          trials=2000, fmt="jsonl")
        payload = records_to_bytes(run_sweep(cfg), "jsonl")
        rec = json.loads(payload.decode().splitlines()[0])
        assert rec["mode"] == "nspin_optimal"
        assert rec["phi"] is None
        assert rec["analytic"] == pytest.approx(1 / math.sqrt(3), rel=1e-15)

    def test_single_trial_flagged(self, capsys):
        cfg = SweepConfig(mode="single_qubit", n_values=(1,), k_values=(1,), trials=1)
        records = run_sweep(cfg)
        assert records[0]["mc_stderr"] is None and records[0]["z"] is None
        assert "mc_stderr undefined" in capsys.readouterr().err
        payload = records_to_bytes(records, "csv").decode()
        row = next(csv.DictReader(io.StringIO(payload)))
        assert row["mc_stderr"] == "" and row["z"] == ""

    def test_invalid_configs_rejected_before_work(self):
        for cfg in (
            SweepConfig(mode="nspin_optimal", n_values=(3,), k_values=(1,)),
            SweepConfig(mode="single_qubit", n_values=(2,), k_values=(1,)),
            SweepConfig(mode="nspin_parallel", n_values=(), k_values=(1,)),
            SweepConfig(mode="nspin_parallel", n_values=(2,), k_values=(0,)),
            SweepConfig(mode="single_qubit", n_values=(1,), k_values=(1,), trials=0),
            SweepConfig(mode="single_qubit", n_values=(1,), k_values=(1,), fmt="xml"),
            SweepConfig(mode="single_qubit", n_values=(1,), k_values=(1,), z_max=math.nan),
            SweepConfig(mode="single_qubit", n_values=(1,), k_values=(1,), seed=-1),
            SweepConfig(mode="single_qubit", n_values=(1,), k_values=(1,), seed=2 ** 64),
        ):
            with pytest.raises(ValueError):
                cfg.validate()


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
class TestBuildId:
    """build_id asks git only about a work tree that tracks the package."""

    @staticmethod
    def _git(repo, *args):
        return subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=repo,
            env=TestBuildId._env(), capture_output=True, text=True, check=True).stdout

    @staticmethod
    def _env(**extra):
        env = {k: v for k, v in os.environ.items() if not k.startswith("GIT_")}
        return {**env, "PYTHONDONTWRITEBYTECODE": "1", **extra}

    @staticmethod
    def _build_id_from(site):
        out = subprocess.run(
            [sys.executable, "-c", "from spinrelay.sweep import build_id; print(build_id())"],
            cwd=site, env=TestBuildId._env(PYTHONPATH=str(site)), capture_output=True,
            text=True, check=True)
        return out.stdout.strip()

    def test_untracked_copy_in_another_repository(self, tmp_path):
        self._git(tmp_path, "init", "-q")
        (tmp_path / ".gitignore").write_text(".venv/\n")
        self._git(tmp_path, "add", ".gitignore")
        self._git(tmp_path, "commit", "-q", "-m", "host")
        package = Path(spinrelay.__file__).parent
        ignore = shutil.ignore_patterns("__pycache__")
        venv, tracked = tmp_path / ".venv", tmp_path / "lib"
        shutil.copytree(package, venv / "spinrelay", ignore=ignore)
        shutil.copytree(package, tracked / "spinrelay", ignore=ignore)
        self._git(tmp_path, "add", "lib")
        self._git(tmp_path, "commit", "-q", "-m", "vendored")

        assert self._build_id_from(venv) == f"spinrelay-{spinrelay.__version__}"
        # a copy the host repository does track reports the host's commit
        described = self._git(tmp_path, "describe", "--always", "--dirty", "--tags").strip()
        assert self._build_id_from(tracked) == described


class TestEmitEncoding:
    def test_two_spin_values(self):
        payload = emit_encoding(2)
        assert payload["optimal_tilde_delta"] == pytest.approx(0.5773502692, abs=1e-9)
        np.testing.assert_allclose(payload["phi"], [0.7071067812, 0.7071067812],
                                   atol=1e-9)
        assert payload["parallel_tilde_delta"] == 0.5

    def test_four_spin_lambda(self):
        assert emit_encoding(4)["optimal_tilde_delta"] == pytest.approx(0.7745966692,
                                                                        abs=1e-9)

    def test_csv_round_trip_preserves_norm(self, tmp_path):
        out = tmp_path / "enc.csv"
        assert main(["encode", "--n", "10", "--format", "csv", "--out", str(out)]) == 0
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert list(rows[0]) == ["N", "J", "phi_J", "parallel_tilde_delta",
                                 "optimal_tilde_delta", "build"]
        coeffs = np.array([float(r["phi_J"]) for r in rows])
        assert abs(coeffs @ coeffs - 1.0) < 1e-10
        assert {int(r["J"]) for r in rows} == set(range(6))

    def test_jsonl_round_trip_preserves_norm(self, capsys):
        assert main(["encode", "--n", "8"]) == 0
        coeffs = np.array(json.loads(capsys.readouterr().out)["phi"])
        assert abs(coeffs @ coeffs - 1.0) < 1e-10

    def test_encode_bytes(self, tmp_path, monkeypatch):
        import spinrelay.sweep as sweep_mod
        monkeypatch.setattr(sweep_mod, "build_id", lambda: "test-build")
        expected = {
            "csv": b"N,J,phi_J,parallel_tilde_delta,optimal_tilde_delta,build\r\n"
                   b"2,0,0.70710678118654746,0.5,0.57735026918962595,test-build\r\n"
                   b"2,1,0.70710678118654768,0.5,0.57735026918962595,test-build\r\n",
            "jsonl": b'{"N": 2, "phi": [0.7071067811865475, 0.7071067811865477], '
                     b'"parallel_tilde_delta": 0.5, "optimal_tilde_delta": 0.577350269189626, '
                     b'"build": "test-build"}\n'}
        for fmt, data in expected.items():
            out = tmp_path / f"encode.{fmt}"
            assert main(["encode", "--n", "2", "--format", fmt, "--out", str(out)]) == 0
            assert out.read_bytes() == data


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestParsing:
    def test_int_ranges(self):
        assert parse_int_range("4") == (4,)
        assert parse_int_range("2,4,10") == (2, 4, 10)
        assert parse_int_range("1..4") == (1, 2, 3, 4)
        assert parse_int_range("2..10..2") == (2, 4, 6, 8, 10)
        for bad in ("4..1", "1..2..0", "1..2..3..4", "x"):
            with pytest.raises(ValueError):
                parse_int_range(bad)

    def test_config_file(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text("mode = nspin_parallel\nn = 2,4\nk = 1..2  # grid\n\ntrials=500\n")
        values = parse_config_file(str(path))
        assert values == {"mode": "nspin_parallel", "n": "2,4", "k": "1..2",
                          "trials": "500"}
        bad = tmp_path / "bad.cfg"
        bad.write_text("just words\n")
        with pytest.raises(ValueError):
            parse_config_file(str(bad))


class TestCli:
    def test_analytic_csv(self, capsys):
        assert main(["analytic", "--mode", "single_qubit", "--k", "1..4"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        rows = list(csv.DictReader(io.StringIO("\n".join(lines))))
        deltas = [float(r["delta"]) for r in rows]
        np.testing.assert_allclose(deltas, [1 / 3, 1 / 9, 1 / 27, 1 / 81], rtol=1e-14)
        assert float(rows[0]["fidelity"]) == pytest.approx(2 / 3, rel=1e-14)

    def test_analytic_bytes(self, tmp_path):
        argv = ["analytic", "--mode", "single_qubit", "--k", "1..2", "--phi", "0.5"]
        expected = {
            "csv": b"mode,N,k,phi,delta,fidelity\r\n"
                   b"single_qubit,1,1,0.5,0.29252752063012422,0.64626376031506205\r\n"
                   b"single_qubit,1,2,0.5,0.085572350326007754,0.54278617516300387\r\n",
            "jsonl": b'{"mode": "single_qubit", "N": 1, "k": 1, "phi": 0.5, '
                     b'"delta": 0.2925275206301242, "fidelity": 0.646263760315062}\n'
                     b'{"mode": "single_qubit", "N": 1, "k": 2, "phi": 0.5, '
                     b'"delta": 0.08557235032600775, "fidelity": 0.5427861751630039}\n'}
        for fmt, data in expected.items():
            out = tmp_path / f"analytic.{fmt}"
            assert main(argv + ["--format", fmt, "--out", str(out)]) == 0
            assert out.read_bytes() == data

    def test_mc_cell(self, capsys):
        assert main(["mc", "--mode", "nspin_parallel", "--n", "4", "--k", "1",
                     "--trials", "2000", "--seed", "11"]) == 0
        row = next(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert float(row["analytic"]) == pytest.approx(2 / 3, rel=1e-14)
        assert abs(float(row["z"])) < 6.0

    def test_sweep_to_file_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["sweep", "--mode", "single_qubit", "--k", "1..3",
                "--trials", "4000", "--seed", "42"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2), "--workers", "3"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_sweep_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mode = nspin_parallel\nn = 2\nk = 1\ntrials = 800\nseed = 3\n")
        assert main(["sweep", "--config", str(cfg)]) == 0
        row = next(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert row["trials"] == "800" and row["mode"] == "nspin_parallel"
        # explicit flag beats the file
        assert main(["sweep", "--config", str(cfg), "--trials", "900"]) == 0
        row = next(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert row["trials"] == "900"
        # also when the flag's value is its default
        assert main(["sweep", "--config", str(cfg), "--seed", "42"]) == 0
        row = next(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert row["seed"] == "42" and row["trials"] == "800"
        cfg.write_text(cfg.read_text() + "format = jsonl\n")
        assert main(["sweep", "--config", str(cfg), "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("mode,N,k,")
        row = next(csv.DictReader(io.StringIO(out)))
        assert row["seed"] == "3" and row["mode"] == "nspin_parallel"

    def test_sweep_plot_script(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        script = tmp_path / "plot_run.py"
        assert main(["sweep", "--mode", "nspin_parallel", "--n", "2,4", "--k", "1..2",
                     "--trials", "500", "--out", str(out),
                     "--plot-script", str(script)]) == 0
        text = script.read_text()
        assert str(out) in text
        compile(text, str(script), "exec")  # emitted script is valid python
        # plot script without a CSV target is a usage error
        assert main(["sweep", "--mode", "nspin_parallel", "--n", "2",
                     "--trials", "100", "--plot-script", str(script)]) == 2
        capsys.readouterr()

    def test_sweep_z_gate_exit_code(self, tmp_path, capsys):
        code = main(["sweep", "--mode", "single_qubit", "--k", "1",
                     "--trials", "500", "--seed", "1", "--z-max", "1e-6"])
        assert code == 1
        assert "exceeds z-max" in capsys.readouterr().err

    def test_usage_errors_exit_2(self, tmp_path, capsys):
        assert main(["sweep", "--mode", "nspin_optimal", "--n", "3"]) == 2
        assert main(["mc", "--mode", "nspin_optimal", "--n", "3"]) == 2
        assert main(["sweep", "--config", str(tmp_path / "missing.cfg")]) == 2
        assert main(["sweep", "--mode", "nspin_parallel", "--n", "2", "--trials", "100",
                     "--out", str(tmp_path / "no" / "such" / "x.csv")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 4 and all(line.startswith("error: ") for line in err)

    def test_nan_z_max_and_out_of_range_seeds_exit_2(self, tmp_path, monkeypatch, capsys):
        # a nan gate would pass every |z|, and seeds outside [0, 2^64)
        # would alias other seeds' streams
        import spinrelay.sweep as sweep_mod

        def fail(*args, **kwargs):
            raise AssertionError("run_sweep called on a rejected config")

        monkeypatch.setattr(sweep_mod, "run_sweep", fail)
        cfg = tmp_path / "nan.cfg"
        cfg.write_text("mode = single_qubit\nk = 1\ntrials = 100\nz_max = nan\n")
        cases = [["sweep", "--phi", "1.5707963267948966", "--trials", "100",
                  "--z-max", "nan"],
                 ["sweep", "--config", str(cfg)]]
        for command in ("sweep", "mc"):
            for seed in ("-1", str(2 ** 64), "18446744073709551617"):
                cases.append([command, "--trials", "100", "--seed", seed])
        for argv in cases:
            assert main(argv) == 2, argv
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, argv
        monkeypatch.undo()
        # the largest seed still runs
        for command in ("sweep", "mc"):
            assert main([command, "--trials", "100", "--seed", str(2 ** 64 - 1)]) == 0
            row = next(csv.DictReader(io.StringIO(capsys.readouterr().out)))
            assert row["seed"] == str(2 ** 64 - 1)

    def test_unwritable_out_fails_before_any_cell(self, tmp_path, monkeypatch, capsys):
        import spinrelay.sweep as sweep_mod

        def fail(*args, **kwargs):
            raise AssertionError("run_sweep called before the output path was checked")

        monkeypatch.setattr(sweep_mod, "run_sweep", fail)
        missing = str(tmp_path / "no" / "such" / "x.csv")
        kept = tmp_path / "kept.csv"
        kept.write_text("earlier output\n")
        cases = [["sweep", "--k", "1..3", "--trials", "300000", "--out", missing],
                 ["mc", "--k", "3", "--trials", "1000000", "--out", missing],
                 ["sweep", "--out", str(tmp_path)],
                 ["sweep", "--out", str(kept), "--plot-script", missing]]
        for argv in cases:
            assert main(argv) == 2, argv
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, argv
        assert kept.read_text() == "earlier output\n"

    def test_analytic_rejects_bad_chains(self, tmp_path, capsys):
        cases = [(mode, "1" if mode == "single_qubit" else "2", "0", "0") for mode in MODES]
        cases += [("nspin_optimal", "3", "1", "0"), ("single_qubit", "1", "1", "4"),
                  ("single_qubit", "2", "1", "0")]
        for mode, n, k, phi in cases:
            code = main(["analytic", "--mode", mode, "--n", n, "--k", k, "--phi", phi])
            out, err = capsys.readouterr()
            assert code == 2, (mode, n, k, phi)
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        # a rejected call leaves an existing output file as it was
        kept = tmp_path / "kept.csv"
        kept.write_text("earlier output\n")
        assert main(["analytic", "--k", "0", "--out", str(kept)]) == 2
        assert kept.read_text() == "earlier output\n"
        capsys.readouterr()

    def test_oversized_counts_exit_2(self, monkeypatch, capsys):
        # a count too large to index or allocate is a usage error, not a
        # traceback whose exit 1 reads as a failed z-gate
        import spinrelay.sweep as sweep_mod

        def fail(*args, **kwargs):
            # numpy raises a subclass with a message for this mc call; a
            # failed allocation in Python itself raises one without
            raise MemoryError()

        cases = [["analytic", "--k", "1..100000000000000000000000"],
                 ["sweep", "--mode", "nspin_parallel", "--n", "2",
                  "--k", "100000000000000000000", "--trials", "10"],
                 ["mc", "--mode", "nspin_parallel", "--n", "2", "--k", "1",
                  "--trials", "10000000000000"]]
        for argv in cases:
            if argv[0] == "mc":
                monkeypatch.setattr(sweep_mod, "run_sweep", fail)
            assert main(argv) == 2, argv
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, argv
        assert err == "error: MemoryError\n"

    def test_huge_range_names_its_flag_and_the_limit(self, tmp_path, capsys):
        # counted, not built: a tuple of 2e18 ints would end in a bare MemoryError
        huge = "1..2000000000000000000"
        config = tmp_path / "huge.cfg"
        config.write_text(f"mode = nspin_parallel\nn = {huge}\n")
        cases = [(["analytic", "--k", huge], "--k"), (["sweep", "--k", huge], "--k"),
                 (["sweep", "--config", str(config)], "config key n")]
        for argv, name in cases:
            assert main(argv) == 2, argv
            out, err = capsys.readouterr()
            assert out == "" and err == f"error: {name} {huge}: more than 1000000 values\n"
        assert parse_int_range("1..1000000", "--k")[-1] == MAX_RANGE_VALUES

    def test_numerical_failure_exit_3(self, monkeypatch, capsys):
        def fail(self):
            raise RuntimeError("inverse-CDF table refinement did not converge")

        monkeypatch.setattr(OutcomeDensity, "_inverse_table", property(fail))
        code = main(["sweep", "--mode", "nspin_optimal", "--n", "4",
                     "--trials", "100", "--workers", "2"])
        err = capsys.readouterr().err
        assert code == 3
        assert err == "error: inverse-CDF table refinement did not converge\n"

    def test_encode_jsonl(self, capsys):
        assert main(["encode", "--n", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["optimal_tilde_delta"] == pytest.approx(0.5773502692, abs=1e-9)
        assert "lambda_max" not in payload

    def test_selftest_single_criterion(self, capsys):
        assert main(["selftest", "--criteria", "8"]) == 0
        out = capsys.readouterr().out
        assert "[8] PASS" in out and "1/1 criteria passed" in out
