"""The package surface: no 3-D chain in the library, and every module the
benchmark's tracer hooks still imports."""

import importlib
import importlib.util
from pathlib import Path

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
