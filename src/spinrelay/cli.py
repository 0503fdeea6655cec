"""Command-line driver.

Subcommands: ``analytic`` (closed forms), ``mc`` (one Monte Carlo cell),
``sweep`` (grid of cells with z-scores, from flags or a key=value config
file), ``encode`` (optimal-encoding coefficients), ``selftest`` (the
acceptance suite).  Output is CSV (RFC-4180, 17 significant digits) or
JSON lines.

Exit codes: 0 ok, 1 a z-gate or acceptance criterion failed, 2 usage
error (including a config or output path that cannot be read or
written, and a count too large to index or allocate), 3 numerical
failure (a routine that did not converge).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .encoding import MODES, analytic_delta, fidelity_from_delta
from .sweep import (
    FORMATS,
    MAX_RANGE_VALUES,
    RECORD_FIELDS,
    SweepConfig,
    check_grid,
    emit_encoding,
    max_abs_z,
    records_to_bytes,
    write_records,
)


def parse_int_range(text: str, name: str = "range") -> tuple[int, ...]:
    """Parse '4', '2,4,10', or 'a..b[..step]' into a tuple of ints.  A
    range is counted before it is built; messages start ``name text:``."""
    text = text.strip()
    try:
        parts = [int(p) for p in text.split(".." if ".." in text else ",")]
    except ValueError as exc:
        raise ValueError(f"{name} {text}: {exc}") from None
    if ".." not in text:
        return tuple(parts)
    if len(parts) not in (2, 3):
        raise ValueError(f"{name} {text}: bad range syntax")
    start, stop, step = (parts + [1])[:3]
    if step < 1 or stop < start:
        raise ValueError(f"{name} {text}: bad range bounds")
    if (stop - start) // step >= MAX_RANGE_VALUES:
        raise ValueError(f"{name} {text}: more than {MAX_RANGE_VALUES} values")
    return tuple(range(start, stop + 1, step))


def parse_config_file(path: str) -> dict:
    """Read 'key = value' lines; '#' starts a comment."""
    values = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line: {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        values[key] = val
    return values


def _write_out(records: list[dict], fmt: str, path: str | None,
               fields: tuple[str, ...] = RECORD_FIELDS) -> None:
    """Write records with :func:`write_records` to ``path``, or to stdout
    for None or '-'."""
    if path is None or path == "-":
        write_records(records, fmt, sys.stdout, fields)
        return
    with open(path, "w", newline="") as fh:
        write_records(records, fmt, fh, fields)


def _check_writable(path: str | None, flag: str) -> None:
    """Reject an output path whose directory is missing or read-only.

    Runs before any cell is simulated; the file itself is neither created
    nor truncated here.
    """
    if path is None or path == "-":
        return
    folder = Path(path).parent
    if not folder.is_dir():
        raise ValueError(f"{flag} {path}: directory {str(folder)!r} does not exist")
    if Path(path).is_dir() or not os.access(folder, os.W_OK | os.X_OK):
        raise ValueError(f"{flag} {path}: not a writable file path")


#: the sweep's flags and config keys with their defaults
_SWEEP_DEFAULTS = {"mode": "single_qubit", "n": "1", "k": "1", "phi": 0.0,
                   "trials": 100_000, "seed": 42, "format": "csv", "z_max": 4.0,
                   "workers": 1, "out": None}


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--mode", choices=MODES, default="single_qubit")
    p.add_argument("--n", default="1", help="N values: '4', '2,4,10', or '2..10..2'")
    p.add_argument("--k", default="1", help="k values, same syntax as --n")
    p.add_argument("--phi", type=float, default=0.0,
                   help="Kraus offset angle in radians (single_qubit only)")
    p.add_argument("--format", choices=FORMATS, default="csv")
    p.add_argument("--out", default=None, help="output path ('-' = stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinrelay",
        description="Sequential-observer direction estimation: closed forms "
                    "and seeded Monte Carlo verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analytic", help="print closed-form shrink factors/fidelities")
    _add_common(p)

    p = sub.add_parser("mc", help="Monte Carlo estimate for one (mode, N, k) cell")
    p.add_argument("--mode", choices=MODES, default="single_qubit")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--phi", type=float, default=0.0)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--format", choices=FORMATS, default="csv")
    p.add_argument("--out", default=None)

    p = sub.add_parser("sweep", help="analytic-vs-MC sweep over (N, k) grid")
    _add_common(p)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--z-max", type=float, help="exit nonzero when any |z| exceeds this")
    p.add_argument("--workers", type=int)
    p.add_argument("--config", default=None,
                   help="key=value file; explicit flags override it")
    p.add_argument("--plot-script", default=None,
                   help="also write a standalone plotting script referencing "
                        "the CSV written by --out")
    # a flag left out reads None, so that --config or _SWEEP_DEFAULTS fills it in
    p.set_defaults(**dict.fromkeys(_SWEEP_DEFAULTS))

    p = sub.add_parser("encode", help="emit the optimal encoding for one even N")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=FORMATS, default="jsonl")
    p.add_argument("--out", default=None)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.add_argument("--criteria", default=None,
                   help="comma-separated criterion numbers (default: all)")
    return parser


_ANALYTIC_FIELDS = ("mode", "N", "k", "phi", "delta", "fidelity")

#: encode's fields: one JSONL record, or one CSV row per coefficient phi_J
_ENCODING_FIELDS = {
    "jsonl": ("N", "phi", "parallel_tilde_delta", "optimal_tilde_delta", "build"),
    "csv": ("N", "J", "phi_J", "parallel_tilde_delta", "optimal_tilde_delta", "build"),
}


def cmd_analytic(args) -> int:
    k_values = parse_int_range(args.k, "--k")
    n_values = parse_int_range(args.n, "--n")
    check_grid(n_values, k_values, "--n", "--k")
    rows = []
    for n in n_values:
        for k in k_values:
            delta = analytic_delta(args.mode, n, k, args.phi)
            rows.append({"mode": args.mode, "N": n, "k": k,
                         "phi": args.phi if args.mode == "single_qubit" else None,
                         "delta": delta, "fidelity": fidelity_from_delta(delta)})
    # opened only once every row is valid, so a rejected call leaves --out alone
    _write_out(rows, args.format, args.out, _ANALYTIC_FIELDS)
    return 0


def cmd_mc(args) -> int:
    cfg = SweepConfig(mode=args.mode, n_values=(args.n,), k_values=(args.k,),
                      phi=args.phi, trials=args.trials, seed=args.seed,
                      fmt=args.format)
    cfg.validate("--k", "--trials")
    _check_writable(args.out, "--out")
    from .sweep import run_sweep
    _write_out(run_sweep(cfg), args.format, args.out)
    return 0


def _sweep_config(args) -> tuple[SweepConfig, str | None]:
    """The validated config and output path: defaults, then --config, then flags."""
    file_vals = parse_config_file(args.config) if args.config else {}
    unknown = set(file_vals) - set(_SWEEP_DEFAULTS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    given = {key: getattr(args, key) for key in _SWEEP_DEFAULTS
             if getattr(args, key) is not None}
    # flags given on the command line win over the file, the file over the defaults
    base = {**_SWEEP_DEFAULTS, **file_vals, **given}
    name = {key: f"--{key}" if key in given else f"config key {key}" for key in base}
    cfg = SweepConfig(
        mode=str(base["mode"]),
        n_values=parse_int_range(str(base["n"]), name["n"]),
        k_values=parse_int_range(str(base["k"]), name["k"]),
        phi=float(base["phi"]),
        trials=int(base["trials"]),
        seed=int(base["seed"]),
        fmt=str(base["format"]),
        z_max=float(base["z_max"]),
        workers=int(base["workers"]),
    )
    cfg.validate(name["k"], name["trials"], name["n"])
    return cfg, (base["out"] if base["out"] not in (None, "") else None)


def cmd_sweep(args) -> int:
    cfg, out = _sweep_config(args)
    if args.plot_script and (cfg.fmt != "csv" or out in (None, "-")):
        raise ValueError("--plot-script needs --format csv and --out FILE")
    _check_writable(out, "--out")
    _check_writable(args.plot_script, "--plot-script")
    from .sweep import run_sweep, write_plot_script
    records = run_sweep(cfg)
    payload = records_to_bytes(records, cfg.fmt)
    if out is None or out == "-":
        sys.stdout.write(payload.decode())
    else:
        Path(out).write_bytes(payload)
    if args.plot_script:
        write_plot_script(out, args.plot_script)
    worst = max_abs_z(records)
    if worst > cfg.z_max:
        print(f"error: max |z| = {worst:.2f} exceeds z-max = {cfg.z_max}",
              file=sys.stderr)
        return 1
    return 0


def cmd_encode(args) -> int:
    payload = emit_encoding(args.n)
    rows = [payload] if args.format == "jsonl" else [
        {**payload, "J": j, "phi_J": coeff} for j, coeff in enumerate(payload["phi"])]
    _write_out(rows, args.format, args.out, _ENCODING_FIELDS[args.format])
    return 0


def cmd_selftest(args) -> int:
    from .acceptance import run_criteria
    numbers = None
    if args.criteria:
        numbers = tuple(int(c) for c in args.criteria.split(","))
    results = run_criteria(numbers)
    failures = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"[{res.number}] {status} {res.name}: {res.detail}")
        failures += not res.passed
    print(f"{len(results) - failures}/{len(results)} criteria passed")
    return 1 if failures else 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "analytic": cmd_analytic,
        "mc": cmd_mc,
        "sweep": cmd_sweep,
        "encode": cmd_encode,
        "selftest": cmd_selftest,
    }[args.command]
    try:
        return handler(args)
    except (ValueError, OSError, OverflowError, MemoryError) as exc:
        # a count too large to index or allocate is a usage error, not a failed z-gate
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # a numerical routine failed to converge: not a z-gate failure
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
