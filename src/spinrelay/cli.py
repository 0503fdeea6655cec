"""Command-line driver.

Subcommands: ``analytic`` (closed forms), ``sweep`` (grid of cells with
z-scores, from flags or a key=value config file), ``mc`` (a sweep of one
N and one k whose z-gate never fails), ``encode`` (optimal-encoding
coefficients), ``selftest`` (the acceptance suite).  The first three take
their flags from one table and merge them one way: defaults, then
``--config``, then the command line.  Every subcommand writes through
``records_to_bytes``: CSV (RFC-4180, 17 significant digits) or JSONL.

Exit codes: 0 ok, 1 a z-gate or acceptance criterion failed, 2 usage
error (including a config or output path that cannot be read or
written, and a count too large to index or allocate), 3 numerical
failure (a routine that did not converge).  Errors argparse raises
itself, such as an unknown flag, print its usage text and exit 2.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .laws import MODES, analytic_delta, fidelity_from_delta
from .sweep import (
    FORMATS,
    MAX_RANGE_VALUES,
    SweepConfig,
    check_grid,
    emit_encoding,
    max_abs_z,
    records_to_bytes,
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
    """Read 'key = value' lines, each key at most once; '#' starts a comment."""
    values = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line: {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        if key in values:
            raise ValueError(f"config key {key} given twice")
        values[key] = val
    return values


def _write_out(payload: bytes, path: str) -> None:
    """Write ``payload`` to ``path``, or to stdout for '-'."""
    if path == "-":
        sys.stdout.write(payload.decode())
    else:
        with open(path, "wb") as fh:
            fh.write(payload)


def _check_writable(path: str | None, flag: str) -> None:
    """Reject an output path whose directory is missing or read-only, or
    an existing file that cannot be written.

    Runs before any cell is simulated; the file itself is neither created
    nor truncated here.
    """
    if path is None or path == "-":
        return
    folder = Path(path).parent
    if not folder.is_dir():
        raise ValueError(f"{flag} {path}: directory {str(folder)!r} does not exist")
    if (Path(path).is_dir() or not os.access(folder, os.W_OK | os.X_OK)
            or Path(path).exists() and not os.access(path, os.W_OK)):
        raise ValueError(f"{flag} {path}: not a writable file path")


#: the cell flags of analytic, mc and sweep, which are also sweep's config
#: keys: key -> (default, argparse options).  The options' type (str if
#: none) also converts a config file's text; n and k are ranges
_CELL_FLAGS = {
    "mode": ("single_qubit", {"choices": MODES}),
    "n": ("1", {"help": "N values: '4', '2,4,10', or '2..10..2'"}),
    "k": ("1", {"help": "k values, same syntax as --n"}),
    "phi": (SweepConfig.phi, {"type": float,
                              "help": "Kraus offset angle in radians (single_qubit only)"}),
    "format": (SweepConfig.fmt, {"choices": FORMATS}),
    "out": ("-", {"type": lambda path: path or "-", "help": "output path ('-' or '' = stdout)"}),
    "trials": (SweepConfig.trials, {"type": int}),
    "seed": (SweepConfig.seed, {"type": int}),
    "z_max": (SweepConfig.z_max, {"type": float,
                                  "help": "exit nonzero when any |z| exceeds this"}),
    "workers": (SweepConfig.workers, {"type": int}),
}
_ANALYTIC_KEYS = ("mode", "n", "k", "phi", "format", "out")

#: SweepConfig's field for each cell flag whose name differs
_FIELDS = {"n": "n_values", "k": "k_values", "format": "fmt"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinrelay",
        description="Sequential-observer direction estimation: closed forms "
                    "and seeded Monte Carlo verification.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, keys, text in (
            ("analytic", _ANALYTIC_KEYS, "print closed-form shrink factors/fidelities"),
            ("mc", _ANALYTIC_KEYS + ("trials", "seed"),
             "Monte Carlo estimate for one (mode, N, k) cell"),
            ("sweep", tuple(_CELL_FLAGS), "analytic-vs-MC sweep over (N, k) grid")):
        p = sub.add_parser(command, help=text)
        for key in keys:
            # a flag left out reads None, so that --config or the default fills it in
            p.add_argument("--" + key.replace("_", "-"), default=None, **_CELL_FLAGS[key][1])
    p.add_argument("--config", default=None,
                   help="key=value file; explicit flags override it")
    p.add_argument("--plot-script", default=None,
                   help="also write a standalone plotting script referencing "
                        "the CSV written by --out")

    p = sub.add_parser("encode", help="emit the optimal encoding for one even N")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=FORMATS, default="jsonl")
    p.add_argument("--out", default="-", **_CELL_FLAGS["out"][1])

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.add_argument("--criteria", default=None,
                   help="criterion numbers, as 1,3 or 1..4 (default: all)")
    return parser


def _merge(args) -> tuple[dict, dict]:
    """The subcommand's cell flags, converted, and the name an error gives
    each: its default, then the ``--config`` file, then the command line.
    A key is named ``config key key`` when the file gave it, else ``--key``."""
    keys = [key for key in _CELL_FLAGS if hasattr(args, key)]
    file_vals = parse_config_file(args.config) if getattr(args, "config", None) else {}
    unknown = set(file_vals) - set(keys)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    values, names = {}, {}
    for key in keys:
        (default, opts), value = _CELL_FLAGS[key], getattr(args, key)
        name = f"config key {key}" if value is None and key in file_vals else (
            "--" + key.replace("_", "-"))
        value = file_vals.get(key, default) if value is None else value
        if key in ("n", "k"):
            value = parse_int_range(value, name)
        else:
            try:
                value = opts.get("type", str)(value)
            except ValueError as exc:
                raise ValueError(f"{name} {value}: {exc}") from None
        values[key], names[key] = value, name
    return values, names


_ANALYTIC_FIELDS = ("mode", "N", "k", "phi", "delta", "fidelity")

#: encode's fields: one JSONL record, or one CSV row per coefficient phi_J
_ENCODING_FIELDS = {
    "jsonl": ("N", "phi", "parallel_tilde_delta", "optimal_tilde_delta", "build"),
    "csv": ("N", "J", "phi_J", "parallel_tilde_delta", "optimal_tilde_delta", "build"),
}


def cmd_analytic(args) -> int:
    cell, names = _merge(args)
    check_grid(cell["n"], cell["k"], names["n"], names["k"])
    mode, phi = cell["mode"], cell["phi"]
    deltas = [(n, k, analytic_delta(mode, n, k, phi)) for n in cell["n"] for k in cell["k"]]
    rows = [{"mode": mode, "N": n, "k": k, "phi": phi if mode == "single_qubit" else None,
             "delta": delta, "fidelity": fidelity_from_delta(delta)} for n, k, delta in deltas]
    # written only once every row is valid, so a rejected call leaves --out alone
    _write_out(records_to_bytes(rows, cell["format"], _ANALYTIC_FIELDS), cell["out"])
    return 0


def cmd_sweep(args) -> int:
    """A sweep, or mc: a sweep of one (N, k) cell whose z-gate never fails."""
    values, names = _merge(args)
    out = values.pop("out")
    if args.command == "mc":
        for key in ("n", "k"):
            if len(values[key]) > 1:
                raise ValueError(f"{names[key]} {getattr(args, key)}: mc takes one value")
        values["z_max"] = float("inf")
    cfg = SweepConfig(**{_FIELDS.get(key, key): value for key, value in values.items()})
    cfg.validate(names["k"], names["trials"], names["n"])
    plot = getattr(args, "plot_script", None)
    if plot and (cfg.fmt != "csv" or out == "-"):
        raise ValueError("--plot-script needs --format csv and --out FILE")
    if plot and Path(plot).resolve() == Path(out).resolve():
        raise ValueError(f"--plot-script {plot}: the same file as --out {out}")
    _check_writable(out, "--out")
    _check_writable(plot, "--plot-script")
    from .sweep import run_sweep, write_plot_script
    records = run_sweep(cfg)
    _write_out(records_to_bytes(records, cfg.fmt), out)
    if plot:
        write_plot_script(out, plot)
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
    _write_out(records_to_bytes(rows, args.format, _ENCODING_FIELDS[args.format]), args.out)
    return 0


def cmd_selftest(args) -> int:
    from .acceptance import run_criteria
    results = run_criteria(parse_int_range(args.criteria, "--criteria")
                           if args.criteria else None)
    failures = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"[{res.number}] {status} {res.name}: {res.detail}")
        failures += not res.passed
    print(f"{len(results) - failures}/{len(results)} criteria passed")
    return 1 if failures else 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {"analytic": cmd_analytic, "mc": cmd_sweep, "sweep": cmd_sweep,
               "encode": cmd_encode, "selftest": cmd_selftest}[args.command]
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
