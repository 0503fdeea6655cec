"""Run one ``spinrelay`` command inside this process, traced or not.

    python3 perfbench/traced_sweep.py {0|1} -- <spinrelay arguments>

Calls ``spinrelay.cli.main`` with the CLI's stdout and stderr captured and
prints one JSON object: the exit code, the wall time of ``cli.main``, the
captured output, and with tracing on every span recorded (see tracer.py).
The untraced form is the baseline for the tracing overhead.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracer as tr  # noqa: E402
from spinrelay import cli  # noqa: E402


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[1] not in ("0", "1") or sys.argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    traced, cli_args = sys.argv[1], sys.argv[3:]
    tracer = tr.Tracer()
    if traced == "1":
        tr.install(tracer)
    span = tracer.span("cli.main") if traced == "1" else contextlib.nullcontext()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            with span:
                returncode = cli.main(cli_args)
        except Exception:
            traceback.print_exc()
            returncode = None
        wall = time.perf_counter() - start
    json.dump({"returncode": returncode, "wall_s": wall, "stdout": out.getvalue(),
               "stderr": err.getvalue(), "spans": tracer.spans}, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
