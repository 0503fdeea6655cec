"""Command-line driver.

Subcommands: ``analytic`` (closed forms), ``mc`` (one Monte Carlo cell),
``sweep`` (grid of cells with z-scores, from flags or a key=value config
file), ``encode`` (optimal-encoding coefficients), ``selftest`` (the
acceptance suite).  Output is CSV (RFC-4180, 17 significant digits) or
JSON lines.

Exit codes: 0 ok, 1 a z-gate or acceptance criterion failed, 2 usage
error, 3 numerical failure (a routine that did not converge).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .sweep import (
    FORMATS,
    MODES,
    SweepConfig,
    analytic_delta,
    emit_encoding,
    max_abs_z,
    records_to_bytes,
    write_encoding,
)
from .qubit import fidelity_from_delta


def parse_int_range(text: str) -> tuple[int, ...]:
    """Parse '4', '2,4,10', or 'a..b[..step]' into a tuple of ints."""
    text = text.strip()
    if ".." in text:
        parts = text.split("..")
        if len(parts) == 2:
            start, stop, step = int(parts[0]), int(parts[1]), 1
        elif len(parts) == 3:
            start, stop, step = (int(p) for p in parts)
        else:
            raise ValueError(f"bad range syntax: {text!r}")
        if step < 1 or stop < start:
            raise ValueError(f"bad range bounds: {text!r}")
        return tuple(range(start, stop + 1, step))
    return tuple(int(p) for p in text.split(","))


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


def _open_out(path: str | None):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", newline=""), True


def _add_common(p: argparse.ArgumentParser, with_phi=True):
    p.add_argument("--mode", choices=MODES, default="single_qubit")
    p.add_argument("--n", default="1", help="N values: '4', '2,4,10', or '2..10..2'")
    p.add_argument("--k", default="1", help="k values, same syntax as --n")
    if with_phi:
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
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--z-max", type=float, default=4.0,
                   help="exit nonzero when any |z| exceeds this")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--config", default=None,
                   help="key=value file; explicit flags override it")
    p.add_argument("--plot-script", default=None,
                   help="also write a standalone plotting script referencing "
                        "the CSV written by --out")

    p = sub.add_parser("encode", help="emit the optimal encoding for one even N")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=FORMATS, default="jsonl")
    p.add_argument("--out", default=None)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.add_argument("--criteria", default=None,
                   help="comma-separated criterion numbers (default: all)")
    return parser


def cmd_analytic(args) -> int:
    n_values = parse_int_range(args.n)
    k_values = parse_int_range(args.k)
    fh, close = _open_out(args.out)
    try:
        rows = []
        for n in n_values:
            for k in k_values:
                delta = analytic_delta(args.mode, n, k, args.phi)
                rows.append({"mode": args.mode, "N": n, "k": k,
                             "phi": args.phi if args.mode == "single_qubit" else None,
                             "delta": delta,
                             "fidelity": fidelity_from_delta(max(-1.0, min(1.0, delta)))})
        if args.format == "csv":
            import csv
            writer = csv.writer(fh)
            writer.writerow(["mode", "N", "k", "phi", "delta", "fidelity"])
            for r in rows:
                writer.writerow([r["mode"], r["N"], r["k"],
                                 "" if r["phi"] is None else f"{r['phi']:.17g}",
                                 f"{r['delta']:.17g}", f"{r['fidelity']:.17g}"])
        else:
            for r in rows:
                fh.write(json.dumps(r) + "\n")
    finally:
        if close:
            fh.close()
    return 0


def cmd_mc(args) -> int:
    cfg = SweepConfig(mode=args.mode, n_values=(args.n,), k_values=(args.k,),
                      phi=args.phi, trials=args.trials, seed=args.seed,
                      fmt=args.format)
    cfg.validate()
    from .sweep import run_sweep, write_records
    records = run_sweep(cfg)
    fh, close = _open_out(args.out)
    try:
        write_records(records, args.format, fh)
    finally:
        if close:
            fh.close()
    return 0


_SWEEP_KEYS = ("mode", "n", "k", "phi", "trials", "seed", "format",
               "z_max", "workers", "out")


def _sweep_config(args) -> tuple[SweepConfig, str | None]:
    base = {key: getattr(args, key) for key in _SWEEP_KEYS}
    if args.config:
        file_vals = parse_config_file(args.config)
        unknown = set(file_vals) - set(base)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        defaults = build_parser().parse_args(["sweep"])
        for key, val in file_vals.items():
            # explicit flags win; flags left at their default defer to the file
            if getattr(args, key) == getattr(defaults, key):
                base[key] = val
    cfg = SweepConfig(
        mode=str(base["mode"]),
        n_values=parse_int_range(str(base["n"])),
        k_values=parse_int_range(str(base["k"])),
        phi=float(base["phi"]),
        trials=int(base["trials"]),
        seed=int(base["seed"]),
        fmt=str(base["format"]),
        z_max=float(base["z_max"]),
        workers=int(base["workers"]),
    )
    return cfg, (base["out"] if base["out"] not in (None, "") else None)


def cmd_sweep(args) -> int:
    try:
        cfg, out = _sweep_config(args)
        cfg.validate()
        if args.plot_script and (cfg.fmt != "csv" or out in (None, "-")):
            raise ValueError("--plot-script needs --format csv and --out FILE")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
    fh, close = _open_out(args.out)
    try:
        write_encoding(payload, args.format, fh)
    finally:
        if close:
            fh.close()
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # a numerical routine failed to converge: not a z-gate failure
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
