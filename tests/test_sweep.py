"""Sweep harness: analytic columns, MC cells, output formats, CLI."""

import csv
from fractions import Fraction
import io
import json
import math
import os
from pathlib import Path
import re
import shutil
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import spinrelay
from spinrelay import encoding
from spinrelay.cli import MAX_RANGE_VALUES, main, parse_config_file, parse_int_range
from spinrelay.encoding import _CHAIN_ROWS, OutcomeDensity
from spinrelay.laws import MODES, analytic_delta, chain_laws
from spinrelay.qubit import stern_gerlach
from spinrelay.records import McEstimate, MomentFold
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

from chain3d import collected_nspin as chain_dots_nspin


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
        # observer 2 measures the state turned by pi: its estimate anti-correlates
        assert analytic_delta("single_qubit", 1, 2, math.pi) == pytest.approx(-1 / 9, rel=1e-13)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            analytic_delta("qutrit", 1, 1)

    def test_single_qubit_estimate_law_z(self):
        # the sweep scores observer k's estimate, (1/3) (cos(phi)/3)^(k-1),
        # not the state it hands on, (cos(phi)/3)^k
        for phi in (math.pi / 4, math.pi / 2, math.pi):
            records = run_sweep(SweepConfig("single_qubit", (1,), (1, 2, 3), phi=phi,
                                            trials=400_000, seed=42))
            for rec in records:
                k = rec["k"]
                assert rec["analytic"] == pytest.approx(
                    (math.cos(phi) / 3) ** (k - 1) / 3, rel=1e-14, abs=1e-300)
            assert max_abs_z(records) <= 4.0, f"phi={phi:.3f}"


class TestMcEstimate:
    def test_from_samples(self):
        samples = np.array([0.5, 0.1, -0.2, 0.4])
        est = McEstimate.from_samples(samples)
        assert est.mean == pytest.approx(samples.mean())
        assert est.stderr == pytest.approx(samples.std(ddof=1) / 2.0)
        assert est.trials == 4
        assert est.z_score(0.0) == pytest.approx(est.mean / est.stderr)

    def test_single_trial_has_no_stderr(self):
        est = McEstimate.from_samples(np.array([0.3]))
        assert est.stderr is None
        assert est.z_score(0.0) is None

    def test_cell_estimates(self):
        [est] = mc_estimate_delta("single_qubit", 1, (1,), 0.0, 100_000, RandomStream(42))
        assert abs(est.mean - 1 / 3) < 3 * est.stderr
        [est] = mc_estimate_delta("nspin_optimal", 2, (1,), 0.0, 100_000, RandomStream(43))
        assert abs(est.mean - 1 / math.sqrt(3)) < 3 * est.stderr

    def test_cell_deterministic(self):
        a = mc_estimate_delta("nspin_parallel", 4, (2,), 0.0, 2000, RandomStream(5))
        b = mc_estimate_delta("nspin_parallel", 4, (2,), 0.0, 2000, RandomStream(5))
        assert a == b and len(a) == 1

    @pytest.mark.parametrize("k_values, message", [
        ((0, 3), "chain length must be >= 1, got 0"),
        ((-1, 3), "chain length must be >= 1, got -1"),
        ((), "k_values must be non-empty")])
    def test_k_below_one_or_none_rejected_before_the_chain(self, monkeypatch, k_values,
                                                             message):
        # fold.estimate(k - 1) would index a k below 1 from the end
        def fail(*args):
            raise AssertionError("the chain ran")

        monkeypatch.setattr(encoding, "chain_dots_nspin", fail)
        with pytest.raises(ValueError, match=re.escape(message)):
            mc_estimate_delta("nspin_parallel", 2, k_values, 0.0, 1000, RandomStream(1))


class TestMomentFold:
    """A sweep folds each block of its chain into per-k moments as the block
    is filled, instead of holding the (trials, k) overlaps."""

    # the kernel's own tilt samplers (measure None, left out of the ids) ...
    CHAINS = [pytest.param(*chain, None, id="-".join(map(str, chain))) for chain in (
        ("single_qubit", 1, 0.7, "estimate"), ("single_qubit", 1, 0.7, "prepared"),
        ("nspin_parallel", 4, 0.0, "estimate"), ("nspin_optimal", 4, 0.0, "estimate"),
        ("parallel_start", 4, 0.0, "estimate"), ("nspin_optimal", 280, 0.0, "estimate"))]
    # ... and the sampler mc_estimate_delta forwards for criterion 3 and demo 01
    CHAINS.append(pytest.param("single_qubit", 1, 0.7, "estimate", stern_gerlach,
                               id="single_qubit-1-0.7-estimate-stern_gerlach"))

    @staticmethod
    def _columns(mode, n, phi, overlap, measure, trials):
        ests = mc_estimate_delta(mode, n, (1, 2, 3), phi, trials, RandomStream(17), overlap,
                                 measure=measure)
        dots = chain_dots_nspin(n, 3, mode, RandomStream(17), trials, phi, overlap,
                                measure=measure)
        return zip(ests, dots.T)

    @pytest.mark.parametrize("mode, n, phi, overlap, measure", CHAINS)
    def test_one_block_is_from_samples_bit_for_bit(self, mode, n, phi, overlap, measure):
        trials = _CHAIN_ROWS
        for est, col in self._columns(mode, n, phi, overlap, measure, trials):
            assert est == McEstimate.from_samples(col)
            # numpy's own 1-D mean and std, independent of the fold
            assert est.mean == col.mean()
            assert est.stderr == col.std(ddof=1) / np.sqrt(trials)
            assert est.stderr == np.sqrt(((col - est.mean) ** 2).sum() / (trials - 1)) / np.sqrt(trials)

    @pytest.mark.parametrize("mode, n, phi, overlap, measure", CHAINS)
    def test_many_blocks_match_from_samples(self, mode, n, phi, overlap, measure):
        trials = 2 * _CHAIN_ROWS + 5  # three blocks, the last of five rows
        for est, col in self._columns(mode, n, phi, overlap, measure, trials):
            whole = McEstimate.from_samples(col)
            assert est.trials == whole.trials == trials
            assert est.mean == pytest.approx(whole.mean, rel=1e-14)
            assert est.stderr == pytest.approx(whole.stderr, rel=1e-14)

    def test_tiny_spread_against_exact_fractions(self):
        # values within 1e-9 of 1: raw sums of squares lose every digit of
        # the spread, centred block moments keep it
        col = 1.0 - 1e-9 * RandomStream(3).generator().random(3 * _CHAIN_ROWS + 5)
        fold = MomentFold(1)
        for lo in range(0, col.size, _CHAIN_ROWS):
            fold(col[lo:lo + _CHAIN_ROWS, None])
        exact = [Fraction(x) for x in col]
        n, s1 = len(exact), sum(exact)
        m2 = sum(x * x for x in exact) - s1 * s1 / n
        stderr = math.sqrt(m2 / (n - 1) / n)
        est = fold.estimate(0)
        assert est.mean == pytest.approx(float(s1 / n), rel=1e-15)
        assert est.stderr == pytest.approx(stderr, rel=1e-12)
        raw_m2 = float((col * col).sum()) - n * float(col.mean()) ** 2
        assert math.sqrt(abs(raw_m2) / (n - 1) / n) != pytest.approx(stderr, rel=1e-12)

    def test_memory_does_not_grow_with_trials(self):
        def peak(trials):
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                held = tracemalloc.get_traced_memory()[0]
                mc_estimate_delta("nspin_parallel", 4, (1, 2, 3), 0.0, trials, RandomStream(7))
                return tracemalloc.get_traced_memory()[1] - held
            finally:
                tracemalloc.stop()

        peak(10)  # first-call allocations
        trials = 8 * _CHAIN_ROWS + 5
        # one block of overlaps and the chain step's own block temporaries,
        # about 0.8 MB, against 3.1 MB for the (trials, 3) overlaps alone
        assert peak(trials) < trials * 3 * 8 / 2
        assert peak(trials) < peak(2 * _CHAIN_ROWS) + 64 * 1024

    def test_empty_block_rejected(self):
        with pytest.raises(ValueError, match="at least one sample"):
            McEstimate.from_samples(np.array([]))


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
        # two (mode, N) units, so that four workers run two threads, and
        # three blocks per chain, so that each thread folds several
        cfg = dict(mode="nspin_optimal", n_values=(2, 4), k_values=(1, 2),
                   trials=2 * _CHAIN_ROWS + 5)
        base = records_to_bytes(run_sweep(SweepConfig(**cfg)), "csv")
        again = records_to_bytes(run_sweep(SweepConfig(**cfg)), "csv")
        threaded = records_to_bytes(run_sweep(SweepConfig(**cfg, workers=4)), "csv")
        assert base == again == threaded

    #: seed-1 cells of at most _CHAIN_ROWS trials, with their (N, k, mc_mean,
    #: mc_stderr) as computed before chunk streams; the first are the
    #: optimal_tables cells
    ONE_CHUNK = {
        "optimal_tables": (SweepConfig("nspin_optimal", (160, 280), (1,), trials=10_000, seed=1), [
            (160, 1, 0.9995559473818788, 1.5231256919366546e-05),
            (280, 1, 0.999859113044693, 2.882132259995248e-06)]),
        "single_qubit": (SweepConfig("single_qubit", (1,), (1, 2, 3), phi=0.7, trials=2 ** 14,
                                     seed=1), [
            (1, 1, 0.32933522280314387, 0.003690992904176774),
            (1, 2, 0.07900099445263656, 0.0044625361076529885),
            (1, 3, 0.017273677265021055, 0.004502379444877396)]),
        "nspin_parallel": (SweepConfig("nspin_parallel", (2, 4), (1, 3), trials=10_000, seed=1), [
            (2, 1, 0.4982481908933318, 0.003842050259603766),
            (2, 3, 0.12799745038418578, 0.005688664278391162),
            (4, 1, 0.6664840842926028, 0.0028395806264244904),
            (4, 3, 0.29109567103875617, 0.005113766081233822)]),
        "nspin_optimal": (SweepConfig("nspin_optimal", (2, 4), (1, 3), trials=10_000, seed=1), [
            (2, 1, 0.5753487621004005, 0.003668716102155748),
            (2, 3, 0.1912081226276777, 0.005474763325614655),
            (4, 1, 0.7700635830222322, 0.0024700943161933223),
            (4, 3, 0.4605247564504698, 0.004456910905401712)]),
        "parallel_start": (SweepConfig("parallel_start", (2, 4), (2, 3), trials=10_000, seed=1), [
            (2, 2, 0.2925800891017737, 0.005171306775313097),
            (2, 3, 0.17863038733945358, 0.0055829845136261495),
            (4, 2, 0.5133346153313403, 0.0039918942571043866),
            (4, 3, 0.3938782083096823, 0.004667283327358933)]),
    }

    @pytest.mark.parametrize("cell", sorted(ONE_CHUNK))
    def test_one_chunk_records_keep_their_bytes(self, cell):
        # a cell of at most _CHAIN_ROWS trials runs as one chunk on its own
        # stream, from its start, under any chunk layout
        cfg, expected = self.ONE_CHUNK[cell]
        assert cfg.trials <= _CHAIN_ROWS
        assert [(r["N"], r["k"], r["mc_mean"], r["mc_stderr"])
                for r in run_sweep(cfg)] == expected

    @pytest.mark.parametrize("mode, n_values, phi", [
        ("single_qubit", (1,), 0.7), ("nspin_parallel", (2, 4), 0.0),
        ("nspin_optimal", (2, 4), 0.0), ("parallel_start", (2, 4), 0.0)])
    def test_record_depends_on_its_own_cell_only(self, mode, n_values, phi):
        # one chain per (mode, N) serves every k, yet a record is the same
        # whichever other k or N were asked for and on any worker count
        def sweep(n_values, k_values, workers=1):
            cfg = SweepConfig(mode, n_values, k_values, phi=phi, trials=3000, seed=13,
                              workers=workers)
            return {(r["N"], r["k"]): r for r in run_sweep(cfg)}

        full = sweep(n_values, (1, 2, 3))
        assert sweep(n_values, (1, 2, 3), workers=3) == full
        assert sweep(n_values, (3,)) == {key: full[key] for key in full if key[1] == 3}
        last = n_values[-1]
        assert sweep((last,), (1, 2, 3)) == {key: full[key] for key in full if key[0] == last}
        for n in n_values:
            stream = RandomStream(13).child(MODES.index(mode)).child(n).child(1)
            dots = chain_dots_nspin(n, 1, mode, stream, 3000, phi)
            est = McEstimate.from_samples(dots[:, 0])
            assert (full[n, 1]["mc_mean"], full[n, 1]["mc_stderr"]) == (est.mean, est.stderr)

    def test_workers_capped_at_the_number_of_chains(self, monkeypatch):
        # a stand-in pool that runs the work inline and records its size
        import concurrent.futures
        pools = []

        class InlinePool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        # run_sweep imports the pool where it needs one
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", InlinePool)
        cfg = dict(mode="nspin_parallel", k_values=(1, 2), trials=500, workers=8)
        two = run_sweep(SweepConfig(n_values=(2, 4), **cfg))
        assert pools == [2]
        one = run_sweep(SweepConfig(n_values=(4,), **cfg))
        assert pools == [2]  # one chain runs inline, with no pool
        assert one == two[2:]
        assert run_sweep(SweepConfig(n_values=(4, 4), **cfg)) == one + one
        assert pools == [2]  # so does a repeated one

    def test_a_repeated_n_runs_its_chain_once(self, monkeypatch):
        import spinrelay.sweep as sweep_mod
        calls = []

        def counted(mode, n_spins, *args, **kwargs):
            calls.append(n_spins)
            return mc_estimate_delta(mode, n_spins, *args, **kwargs)

        cfg = dict(mode="nspin_optimal", k_values=(1, 2), trials=500, seed=3)
        alone = {n: run_sweep(SweepConfig(n_values=(n,), **cfg)) for n in (2, 4)}
        monkeypatch.setattr(sweep_mod, "mc_estimate_delta", counted)
        repeated = run_sweep(SweepConfig(n_values=(4, 2, 4), **cfg))
        assert calls == [4, 2]
        # one record per requested (N, k), in request order
        assert (records_to_bytes(repeated, "csv")
                == records_to_bytes(alone[4] + alone[2] + alone[4], "csv"))

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

    @pytest.mark.parametrize("mode, n_values, k_values, phi", [
        ("nspin_optimal", (3, 2, 4), (1, 2), 0.0),   # a bad N first
        ("nspin_optimal", (2, 4, 5), (1, 2), 0.0),   # a bad N last
        ("nspin_optimal", (7,), (1,), 0.0),          # a bad N alone
        ("nspin_optimal", (2, 4), (0, 1), 0.0),      # a k < 1 first
        ("nspin_optimal", (2, 3), (1, 2, -1), 0.0),  # a k < 1 later, and a bad N
        ("nspin_parallel", (2, 0), (1, 0), 0.0),     # both bad, each later
        ("single_qubit", (1,), (1, 2), 4.0),         # a bad phi
        ("single_qubit", (2, 1), (1,), -1.0),        # a bad N before a bad phi
        ("sequential", (2,), (1,), 0.0),             # a bad mode
    ])
    def test_validate_raises_the_nested_loops_first_error(self, mode, n_values, k_values, phi):
        # validation lists each N and each k once; it must still raise the
        # error that a pass over every cell in (N, k) order meets first
        with pytest.raises(ValueError) as expected:
            for n in n_values:
                for k in k_values:
                    chain_laws(mode, n, k, phi)
        with pytest.raises(ValueError) as got:
            SweepConfig(mode, n_values, k_values, phi=phi).validate()
        assert str(got.value) == str(expected.value)


def test_build_id_survives_a_hung_git(monkeypatch, capsys):
    # build_id runs git with a timeout; a git that outlives it falls back to
    # the package version instead of ending the run in a traceback
    def hung(cmd, **kwargs):
        raise subprocess.TimeoutExpired(cmd, kwargs.get("timeout"))

    monkeypatch.setattr(subprocess, "run", hung)
    build_id.cache_clear()
    try:
        fallback = f"spinrelay-{spinrelay.__version__}"
        assert build_id() == fallback
        assert main(["mc", "--trials", "10"]) == 0
        assert capsys.readouterr().out.splitlines()[-1].endswith(f",{fallback}")
    finally:
        build_id.cache_clear()


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
                   b"single_qubit,1,1,0.5,0.33333333333333331,0.66666666666666663\r\n"
                   b"single_qubit,1,2,0.5,0.097509173543374739,0.54875458677168742\r\n",
            "jsonl": b'{"mode": "single_qubit", "N": 1, "k": 1, "phi": 0.5, '
                     b'"delta": 0.3333333333333333, "fidelity": 0.6666666666666666}\n'
                     b'{"mode": "single_qubit", "N": 1, "k": 2, "phi": 0.5, '
                     b'"delta": 0.09750917354337474, "fidelity": 0.5487545867716874}\n'}
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

    MC_ARGV = ["mc", "--mode", "nspin_parallel", "--n", "4", "--k", "2", "--trials", "2000",
               "--seed", "11"]
    HEADER = b"mode,N,k,phi,analytic,mc_mean,mc_stderr,z,trials,seed,build\r\n"
    N4_ROW = (b"nspin_parallel,4,2,,0.44444444444444442,0.45826379592992639,"
              b"0.0095840084058774044,1.4419177133658641,2000,11,test-build\r\n")

    def _stdout(self, argv, capsys):
        code = main(argv)
        out, err = capsys.readouterr()
        return code, out.encode(), err

    def test_mc_and_sweep_bytes(self, monkeypatch, capsys):
        import spinrelay.sweep as sweep_mod
        monkeypatch.setattr(sweep_mod, "build_id", lambda: "test-build")
        assert self._stdout(self.MC_ARGV, capsys) == (0, self.HEADER + self.N4_ROW, "")
        sweep = ["sweep", "--mode", "nspin_parallel", "--n", "2,4", "--k", "2",
                 "--trials", "2000", "--seed", "11"]
        n2_row = (b"nspin_parallel,2,2,,0.25,0.23942769371118461,0.01207711337109285,"
                  b"-0.87540010298493298,2000,11,test-build\r\n")
        assert self._stdout(sweep, capsys) == (0, self.HEADER + n2_row + self.N4_ROW, "")
        jsonl = (b'{"mode": "nspin_parallel", "N": 2, "k": 2, "phi": null, "analytic": 0.25, '
                 b'"mc_mean": 0.2394276937111846, "mc_stderr": 0.01207711337109285, '
                 b'"z": -0.875400102984933, "trials": 2000, "seed": 11, "build": "test-build"}\n'
                 b'{"mode": "nspin_parallel", "N": 4, "k": 2, "phi": null, '
                 b'"analytic": 0.4444444444444444, "mc_mean": 0.4582637959299264, '
                 b'"mc_stderr": 0.009584008405877404, "z": 1.441917713365864, '
                 b'"trials": 2000, "seed": 11, "build": "test-build"}\n')
        assert self._stdout(sweep + ["--format", "jsonl"], capsys) == (0, jsonl, "")

    def test_mc_is_a_one_cell_sweep_whose_gate_never_fails(self, capsys):
        cell = self.MC_ARGV[1:]
        assert (self._stdout(self.MC_ARGV, capsys)
                == self._stdout(["sweep", *cell, "--z-max", "inf"], capsys))
        # |z| = 6.65 at three trials fails a sweep's default gate of 4, but not mc
        tiny = ["--mode", "nspin_parallel", "--n", "4", "--k", "2", "--trials", "3", "--seed", "1"]
        assert self._stdout(["sweep", *tiny], capsys)[0] == 1
        assert self._stdout(["mc", *tiny], capsys)[0] == 0

    def test_mc_takes_one_value_of_n_and_k(self, monkeypatch, capsys):
        import spinrelay.sweep as sweep_mod
        # a range of one value is one cell; '' as --out is stdout
        one = ["mc", "--mode", "nspin_parallel", "--n", "4..4", "--k", "2", "--trials",
               "2000", "--seed", "11", "--out", ""]
        assert self._stdout(one, capsys) == self._stdout(self.MC_ARGV, capsys)

        def fail(*args, **kwargs):
            raise AssertionError("run_sweep called on a rejected mc call")

        monkeypatch.setattr(sweep_mod, "run_sweep", fail)
        cases = [(["mc", "--n", "2,4"], "--n 2,4: mc takes one value"),
                 (["mc", "--k", "1..3"], "--k 1..3: mc takes one value"),
                 (["mc", "--k", "2.5"], "--k 2.5: invalid literal for int() with base 10: '2.5'")]
        for argv, message in cases:
            assert main(argv) == 2, argv
            out, err = capsys.readouterr()
            assert out == "" and err == f"error: {message}\n", argv

    def test_analytic_out_empty_is_stdout(self, capsys):
        argv = ["analytic", "--mode", "nspin_parallel", "--n", "2", "--k", "1..2"]
        assert main(argv + ["--out", ""]) == 0
        assert capsys.readouterr().out == (
            "mode,N,k,phi,delta,fidelity\r\n"
            "nspin_parallel,2,1,,0.5,0.75\r\nnspin_parallel,2,2,,0.25,0.625\r\n")

    def test_defaults_are_named_as_flags(self, tmp_path, capsys):
        # a key neither the command line nor the file gives is named as its flag
        config = tmp_path / "mode.cfg"
        config.write_text("mode = nspin_parallel\nn = 2\n")
        huge = "2305843009213693952"
        cases = [(["sweep", "--trials", huge], f"--k 1 with --trials {huge}"),
                 (["sweep", "--config", str(config), "--trials", huge],
                  f"--k 1 with --trials {huge}"),
                 (["sweep", "--k", huge], f"--k {huge} with --trials 100000")]
        for argv, names in cases:
            assert main(argv) == 2, argv
            out, err = capsys.readouterr()
            assert out == "" and err == (f"error: {names}: "
                                         "more than 2^60 - 1 overlaps\n")

    def test_config_values_that_fail_to_convert_name_their_key(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        cases = [("trials = 1e5", "config key trials 1e5: invalid literal for int() "
                                  "with base 10: '1e5'"),
                 ("phi = abc", "config key phi abc: could not convert string to float: 'abc'"),
                 ("seed = 4.2", "config key seed 4.2: invalid literal for int() "
                                "with base 10: '4.2'"),
                 ("z_max = x", "config key z_max x: could not convert string to float: 'x'")]
        for line, message in cases:
            config.write_text(f"mode = nspin_parallel\nn = 2\n{line}\n")
            assert main(["sweep", "--config", str(config)]) == 2, line
            out, err = capsys.readouterr()
            assert out == "" and err == f"error: {message}\n", line

    def test_plot_script_cannot_overwrite_out(self, tmp_path, monkeypatch, capsys):
        import spinrelay.sweep as sweep_mod

        def fail(*args, **kwargs):
            raise AssertionError("run_sweep called before the output paths were checked")

        monkeypatch.setattr(sweep_mod, "run_sweep", fail)
        monkeypatch.chdir(tmp_path)
        kept = tmp_path / "run.csv"
        kept.write_text("earlier output\n")
        for out, script in (("run.csv", "run.csv"), ("run.csv", "./run.csv"),
                            (str(kept), "run.csv")):
            argv = ["sweep", "--trials", "100", "--out", out, "--plot-script", script]
            assert main(argv) == 2, argv
            out_text, err = capsys.readouterr()
            assert out_text == "" and err == (
                f"error: --plot-script {script}: the same file as --out {out}\n")
        assert kept.read_text() == "earlier output\n"

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

    def test_config_key_given_twice_exits_2_before_any_cell(self, tmp_path, monkeypatch,
                                                             capsys):
        import spinrelay.sweep as sweep_mod

        def fail(*args, **kwargs):
            raise AssertionError("run_sweep called for a config with a repeated key")

        monkeypatch.setattr(sweep_mod, "run_sweep", fail)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mode = nspin_parallel\nn = 2\nk = 1\nk = 2\ntrials = 800\n")
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert capsys.readouterr() == ("", "error: config key k given twice\n")

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

    def test_malformed_range_names_its_flag(self, tmp_path, capsys):
        # every range error starts with the flag or config key and its text
        config = tmp_path / "bad.cfg"
        cases = [(["analytic", "--k", "1,,2"],
                  "--k 1,,2: invalid literal for int() with base 10: ''"),
                 (["analytic", "--n", "4..1"], "--n 4..1: bad range bounds"),
                 (["sweep", "--mode", "nspin_parallel", "--k", "1..2..3..4"],
                  "--k 1..2..3..4: bad range syntax"),
                 (["sweep", "--config", str(config)], "config key n 4..1: bad range bounds"),
                 (["sweep", "--config", str(config), "--n", "2", "--k", "x"],
                  "--k x: invalid literal for int() with base 10: 'x'")]
        config.write_text("mode = nspin_parallel\nn = 4..1\n")
        for argv, message in cases:
            assert main(argv) == 2, argv
            out, err = capsys.readouterr()
            assert out == "" and err == f"error: {message}\n", argv
        config.write_text("mode = nspin_parallel\nn = 2\nk = 1,,3\n")
        assert main(["sweep", "--config", str(config)]) == 2
        assert capsys.readouterr().err == (
            "error: config key k 1,,3: invalid literal for int() with base 10: ''\n")

    def test_huge_k_names_k_and_trials_before_any_work(self, tmp_path, monkeypatch, capsys):
        # a single --k is not a range, so the plain limit on k * trials is
        # what rejects it, before any cell runs or any chain allocates
        import spinrelay.sweep as sweep_mod

        def fail(*args, **kwargs):
            raise AssertionError("a cell ran on a rejected config")

        monkeypatch.setattr(sweep_mod, "mc_estimate_delta", fail)
        huge = "100000000000000000000"
        config = tmp_path / "huge.cfg"
        config.write_text(f"mode = nspin_optimal\nn = 2\nk = {huge}\ntrials = 10\n")
        cases = [(["sweep", "--mode", "nspin_optimal", "--n", "2", "--k", huge,
                   "--trials", "10"], "--k", "--trials"),
                 (["mc", "--mode", "single_qubit", "--k", huge, "--trials", "10"],
                  "--k", "--trials"),
                 (["sweep", "--config", str(config)], "config key k", "config key trials"),
                 (["sweep", "--config", str(config), "--trials", "10"], "config key k",
                  "--trials")]
        for argv, k_name, trials_name in cases:
            assert main(argv) == 2, argv
            out, err = capsys.readouterr()
            assert out == "" and err == (f"error: {k_name} {huge} with {trials_name} 10: "
                                         "more than 2^60 - 1 overlaps\n")
        # at the bound: 2^60 - 1 overlaps pass, 2^60 do not
        SweepConfig("nspin_parallel", (2,), (2 ** 60 - 1,), trials=1).validate()
        with pytest.raises(ValueError, match="^k 1152921504606846976 with trials 1: "):
            SweepConfig("nspin_parallel", (2,), (2 ** 60,), trials=1).validate()

    def test_huge_grid_names_n_and_k_before_any_work(self, tmp_path, monkeypatch, capsys):
        # each range is within its own bound, but their product of cells is
        # counted before validate lists each cell's chain
        import spinrelay.sweep as sweep_mod

        def fail(*args, **kwargs):
            raise AssertionError("a cell was listed or ran on a rejected config")

        monkeypatch.setattr(sweep_mod, "mc_estimate_delta", fail)
        monkeypatch.setattr(sweep_mod, "chain_laws", fail)
        full = "1..1000000"
        config = tmp_path / "grid.cfg"
        config.write_text(f"mode = nspin_parallel\nn = {full}\nk = {full}\ntrials = 1\n")
        out_file = tmp_path / "x.csv"
        cases = [(["sweep", "--mode", "nspin_parallel", "--n", full, "--k", full,
                   "--trials", "1", "--out", str(out_file)], "--n and --k", 10 ** 12),
                 (["sweep", "--config", str(config)], "config key n and config key k", 10 ** 12),
                 (["sweep", "--config", str(config), "--k", "1,2"], "config key n and --k",
                  2 * 10 ** 6)]
        for argv, names, cells in cases:
            assert main(argv) == 2, argv
            out, err = capsys.readouterr()
            assert out == "" and err == (f"error: {names}: {cells} cells, "
                                         "more than 1000000\n")
        assert not out_file.exists()
        # at the bound each N and each k is listed once, not each cell; one
        # more N is rejected
        listed = []
        monkeypatch.setattr(sweep_mod, "chain_laws", lambda *args: listed.append(args))
        thousand = tuple(range(1, 1001))
        SweepConfig("nspin_parallel", thousand, thousand, trials=1).validate()
        assert len(listed) <= 2000
        with pytest.raises(ValueError, match="^n and k: 1001000 cells, more than 1000000$"):
            SweepConfig("nspin_parallel", thousand + (1001,), thousand, trials=1).validate()

    def test_huge_analytic_grid_names_n_and_k_before_any_row(self, tmp_path, monkeypatch,
                                                             capsys):
        # the sweep's cell bound, checked before any row's closed form
        import spinrelay.cli as cli_mod

        def fail(*args, **kwargs):
            raise AssertionError("a row was computed on a rejected grid")

        monkeypatch.setattr(cli_mod, "analytic_delta", fail)
        full = "1..1000000"
        out_file = tmp_path / "x.csv"
        for n, cells in ((full, 10 ** 12), ("1,2", 2 * 10 ** 6)):
            argv = ["analytic", "--mode", "nspin_parallel", "--n", n, "--k", full,
                    "--out", str(out_file)]
            assert main(argv) == 2, argv
            out, err = capsys.readouterr()
            assert out == "" and err == f"error: --n and --k: {cells} cells, more than 1000000\n"
        assert not out_file.exists()
        # one large k is one cell, and still answers
        monkeypatch.undo()
        assert main(["analytic", "--k", "10000000"]) == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("single_qubit,1,10000000,")

    def test_numerical_failure_exit_3(self, monkeypatch, capsys):
        def fail(self):
            raise RuntimeError("inverse-CDF table refinement did not converge")

        monkeypatch.setattr(OutcomeDensity, "_inverse_table", property(fail))
        code = main(["sweep", "--mode", "nspin_optimal", "--n", "4",
                     "--trials", "100", "--workers", "2"])
        err = capsys.readouterr().err
        assert code == 3
        assert err == "error: inverse-CDF table refinement did not converge\n"

    def test_encode_out_empty_is_stdout(self, capsys):
        assert main(["encode", "--n", "2", "--out", "-"]) == 0
        dash = capsys.readouterr().out
        assert main(["encode", "--n", "2", "--out", ""]) == 0
        assert capsys.readouterr().out == dash != ""

    def test_encode_jsonl(self, capsys):
        assert main(["encode", "--n", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["optimal_tilde_delta"] == pytest.approx(0.5773502692, abs=1e-9)
        assert "lambda_max" not in payload

    def test_selftest_single_criterion(self, capsys):
        assert main(["selftest", "--criteria", "8"]) == 0
        out = capsys.readouterr().out
        assert "[8] PASS" in out and "1/1 criteria passed" in out

    def test_selftest_criteria_error_names_its_flag(self, monkeypatch, capsys):
        import spinrelay.acceptance as acceptance_mod

        def fail(numbers=None):
            raise AssertionError("a criterion ran on a rejected --criteria")

        monkeypatch.setattr(acceptance_mod, "run_criteria", fail)
        assert main(["selftest", "--criteria", "1,x"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == ("error: --criteria 1,x: invalid literal for int() "
                                     "with base 10: 'x'\n")
        # an empty --criteria, like an absent one, asks for every criterion
        asked = []

        def record(numbers=None):
            asked.append(numbers)
            return []

        monkeypatch.setattr(acceptance_mod, "run_criteria", record)
        assert main(["selftest", "--criteria", ""]) == 0
        assert main(["selftest"]) == 0
        assert asked == [None, None]
