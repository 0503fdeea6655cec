"""The package surface: no 3-D chain in the library, every module the
benchmark's tracer hooks still imports, the lazy public names, and the CLI
paths that start without numpy."""

import ast
import importlib
import importlib.util
import os
from pathlib import Path
import subprocess
import sys

import pytest

import spinrelay
from spinrelay import encoding, sphere

THREE_D = ["chain_dots_3d", "rotate_towards", "tilt_step", "sample_uniform_sphere"]


@pytest.mark.parametrize("module", [spinrelay, encoding, sphere],
                         ids=lambda module: module.__name__)
def test_no_three_d_names(module):
    # the 3-D chain is the tests' oracle (tests/chain3d.py), not library API
    assert [name for name in THREE_D if hasattr(module, name)] == []


def _tracer():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_hooked_module_imports():
    # the tracer imports the module of every hook site and does not catch
    # a missing one, so a deleted module would end every traced run
    modules = {site.split(":")[0] for sites, _ in _tracer().HOOKS.values() for site in sites}
    assert modules
    for name in sorted(modules):
        importlib.import_module(name)


def test_every_public_name_resolves():
    for name in spinrelay.__all__:
        assert getattr(spinrelay, name) is not None, name


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        spinrelay.no_such_name


DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_imports_resolve(demo):
    imports = [node for node in ast.walk(ast.parse(demo.read_text()))
               if isinstance(node, ast.ImportFrom) and node.module == "spinrelay"]
    assert imports
    for node in imports:
        exec(compile(ast.Module([node], []), str(demo), "exec"), {})


def test_every_public_name_is_used_by_a_demo_or_the_cli():
    # the public API is what the demos import and what the CLI and the
    # acceptance gate use; everything else stays in its module
    used = set()
    for demo in DEMOS:
        used |= {alias.name for node in ast.walk(ast.parse(demo.read_text()))
                 if isinstance(node, ast.ImportFrom) and node.module == "spinrelay"
                 for alias in node.names}
    for module in ("cli.py", "acceptance.py"):
        source = Path(spinrelay.__file__).with_name(module).read_text()
        for node in ast.walk(ast.parse(source)):
            used |= {getattr(node, "id", None), getattr(node, "attr", None),
                     getattr(node, "name", None)}
    assert [name for name in spinrelay.__all__ if name not in used] == []


SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("argv", [
    *(["analytic", "--mode", mode, "--n", n, "--k", "1..3"]
      for mode, n in (("single_qubit", "1"), ("nspin_parallel", "1..4"),
                      ("nspin_optimal", "2..10..2"), ("parallel_start", "2,4"))),
    ["--help"],
    ["mc", "--n", "2,4"],
    ["sweep", "--mode", "nspin_optimal", "--n", "3"],
], ids=" ".join)
def test_cli_paths_that_start_without_numpy(argv):
    # the closed forms, help and usage errors never need an array, a thread
    # pool (which brings logging) or a git process
    script = ("import sys\n"
              "from spinrelay.cli import main\n"
              "try:\n"
              "    code = main(sys.argv[1:])\n"
              "except SystemExit as exc:\n"
              "    code = exc.code\n"
              "unwanted = ('numpy', 'concurrent.futures', 'subprocess', 'logging')\n"
              "print(code, *[name for name in unwanted if name in sys.modules])\n")
    out = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60)
    code = 0 if argv[0] in ("analytic", "--help") else 2
    assert out.stdout.splitlines()[-1] == f"{code}"
