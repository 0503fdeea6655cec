"""Span tracing of spinrelay's modules from outside the package.

``install`` rebinds public names at the sites where one module calls
another (``qubit.rotate_towards``, ``sweep.mc_estimate_delta``, ...) to
wrappers that record a span per call: name, start, end, parent span,
thread and a few counts derived from the call's arguments.  Spans stay in
memory until the run ends.  A name that no longer exists is skipped, so its
layer simply reports zero calls.

Worker threads start with an empty span stack; their spans take as parent
the innermost open span of the thread that created the tracer, which is
``sweep.run_sweep`` while the pool runs.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """Record one span; the yielded dict collects the span's counts."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._home_stack[-1] if self._home_stack else None
        span_id = next(self._ids)
        counts: dict = {}
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield counts
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append({"id": span_id, "name": name, "start": start,
                               "end": end, "parent": parent,
                               "thread": threading.get_ident(), **counts})

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as counts:
                result = fn(*args, **kwargs)
                if count is not None:
                    counts.update(count(args, kwargs, result))
                return result
        return traced


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _rows(size) -> int:
    return 1 if size is None else int(np.prod(size))


def _chain_single(args, kwargs, _):
    k, trials = _arg(args, kwargs, 0, "k"), _arg(args, kwargs, 4, "trials")
    # chains with the same law differ only in length: one of length max(k)
    # would serve them all
    law = (repr(_arg(args, kwargs, 1, "kraus")), _arg(args, kwargs, 2, "scheme"),
           trials, _arg(args, kwargs, 5, "overlap", "estimate"))
    return {"k": k, "trials": trials, "trial_steps": k * trials, "law": repr(law)}


def _chain_nspin(args, kwargs, _):
    k, trials = _arg(args, kwargs, 1, "k"), _arg(args, kwargs, 4, "trials")
    return {"k": k, "trials": trials, "trial_steps": k * trials}


# span name -> (binding sites "module:attribute", first = definition; counts)
HOOKS = {
    "sphere.rotate_towards": (
        ("spinrelay.sphere:rotate_towards", "spinrelay.qubit:rotate_towards",
         "spinrelay.encoding:rotate_towards"),
        lambda a, kw, _: {"rows": _rows(np.shape(_arg(a, kw, 0, "axis"))[:-1])}),
    "sphere.sample_uniform_sphere": (
        ("spinrelay.sphere:sample_uniform_sphere", "spinrelay.qubit:sample_uniform_sphere",
         "spinrelay.encoding:sample_uniform_sphere"),
        lambda a, kw, _: {"rows": _rows(_arg(a, kw, 1, "size"))}),
    "qubit.chain_dots_single": (
        ("spinrelay.qubit:chain_dots_single", "spinrelay.sweep:chain_dots_single"),
        _chain_single),
    "encoding.chain_dots_nspin": (
        ("spinrelay.encoding:chain_dots_nspin", "spinrelay.sweep:chain_dots_nspin"),
        _chain_nspin),
    "encoding.OutcomeDensity.sample": (
        ("spinrelay.encoding:OutcomeDensity.sample",),
        lambda a, kw, _: {"rows": _rows(_arg(a, kw, 2, "size"))}),
    "legendre.legendre_series": (
        ("spinrelay.legendre:legendre_series", "spinrelay.encoding:legendre_series"),
        lambda a, kw, _: {"points": int(np.size(_arg(a, kw, 1, "x")))}),
    "encoding.outcome_density": (
        ("spinrelay.encoding:outcome_density",),
        lambda a, kw, _: {"N": _arg(a, kw, 0, "encoding").n_spins}),
    "encoding.optimal_encoding": (
        ("spinrelay.encoding:optimal_encoding",),
        lambda a, kw, _: {"N": _arg(a, kw, 0, "n_spins")}),
    "sweep.mc_estimate_delta": (("spinrelay.sweep:mc_estimate_delta",), None),
    "sweep.run_sweep": (
        ("spinrelay.sweep:run_sweep",),
        lambda a, kw, _: {"workers": _arg(a, kw, 0, "cfg").workers}),
    "records.McEstimate.from_samples": (("spinrelay.records:McEstimate.from_samples",), None),
    "sweep.records_to_bytes": (
        ("spinrelay.sweep:records_to_bytes", "spinrelay.cli:records_to_bytes"),
        lambda a, kw, result: {"bytes": len(result)}),
    "sweep.build_id": (("spinrelay.sweep:build_id",), None),
    "rng.RandomStream.generator": (("spinrelay.rng:RandomStream.generator",), None),
    "rng.RandomStream.child": (("spinrelay.rng:RandomStream.child",), None),
}


def _resolve(site: str):
    """(owner, attribute, raw value) of a binding site, or None if it is gone."""
    module_name, dotted = site.split(":")
    owner = importlib.import_module(module_name)
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    return None if raw is None else (owner, attr, raw)


def install(tracer: Tracer, hooks: dict = HOOKS):
    """Rebind every hook site to a tracing wrapper; returns the undo function."""
    saved = []
    for name, (sites, count) in hooks.items():
        for site in sites:
            found = _resolve(site)
            if found is None:
                continue
            owner, attr, raw = found
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(tracer.wrap(name, raw.__func__, count))
            else:
                wrapped = tracer.wrap(name, raw, count)
            setattr(owner, attr, wrapped)
            saved.append((owner, attr, raw))

    def uninstall():
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)
    return uninstall


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------

def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, -float("inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list[dict]) -> dict:
    """Span id -> duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append(s)
    return {s["id"]: (s["end"] - s["start"]) - _covered(
                (max(c["start"], s["start"]), min(c["end"], s["end"]))
                for c in children[s["id"]])
            for s in spans}


# spans that wrap a whole run or cell: they would cover the traced wall
# whatever the layers below them report
DRIVERS = {"cli.main", "sweep.run_sweep", "sweep.mc_estimate_delta"}


def _ratio(num: float, den: float) -> float:
    # an empty ratio means no work was wasted
    return num / den if den else 1.0


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer metrics of one traced run whose outermost span is ``cli.main``."""
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
    (top,) = by_name["cli.main"]
    wall = top["end"] - top["start"]

    def calls(name):
        return len(by_name[name])

    def total(name, key):
        return sum(s[key] for s in by_name[name])

    def self_s(name):
        return sum(selfs[s["id"]] for s in by_name[name])

    def inclusive_s(name):
        return _covered((s["start"], s["end"]) for s in by_name[name])

    chains = by_name["qubit.chain_dots_single"]
    longest = defaultdict(int)
    for s in chains:
        longest[s["law"]] = max(longest[s["law"]], s["k"] * s["trials"])
    cells = [s["end"] - s["start"] for s in by_name["sweep.mc_estimate_delta"]]
    sweeps = by_name["sweep.run_sweep"]
    sweep_capacity = sum((s["end"] - s["start"]) * s["workers"] for s in sweeps)

    return {
        "trace.wall_s": wall,
        "trace.coverage_share": _covered(
            (s["start"], s["end"]) for s in spans if s["name"] not in DRIVERS) / wall,
        "sphere.rotate_towards.calls": calls("sphere.rotate_towards"),
        "sphere.rotate_towards.rows": total("sphere.rotate_towards", "rows"),
        "sphere.rotate_towards.self_s": self_s("sphere.rotate_towards"),
        "sphere.rotate_towards.self_share": self_s("sphere.rotate_towards") / wall,
        "sphere.sample_uniform_sphere.rows": total("sphere.sample_uniform_sphere", "rows"),
        "sphere.sample_uniform_sphere.self_s": self_s("sphere.sample_uniform_sphere"),
        "qubit.chain_dots_single.calls": calls("qubit.chain_dots_single"),
        "qubit.chain_dots_single.trial_steps": total("qubit.chain_dots_single", "trial_steps"),
        "qubit.chain_dots_single.self_s": self_s("qubit.chain_dots_single"),
        "qubit.useful_step_share": _ratio(
            sum(longest.values()), total("qubit.chain_dots_single", "trial_steps")),
        "encoding.OutcomeDensity.sample.self_s": self_s("encoding.OutcomeDensity.sample"),
        "encoding.OutcomeDensity.sample.total_share":
            inclusive_s("encoding.OutcomeDensity.sample") / wall,
        "legendre.legendre_series.calls": calls("legendre.legendre_series"),
        "legendre.legendre_series.points": total("legendre.legendre_series", "points"),
        "legendre.legendre_series.self_s": self_s("legendre.legendre_series"),
        "encoding.outcome_density.calls": calls("encoding.outcome_density"),
        "encoding.density_reuse": _ratio(
            len({s["N"] for s in by_name["encoding.outcome_density"]}),
            calls("encoding.outcome_density")),
        "encoding.chain_dots_nspin.trial_steps": total("encoding.chain_dots_nspin", "trial_steps"),
        "encoding.chain_dots_nspin.self_s": self_s("encoding.chain_dots_nspin"),
        "encoding.optimal_encoding.self_s": self_s("encoding.optimal_encoding"),
        "sweep.mc_estimate_delta.calls": calls("sweep.mc_estimate_delta"),
        "sweep.mc_estimate_delta.self_s": self_s("sweep.mc_estimate_delta"),
        "sweep.cell_s.p50": statistics.median(cells) if cells else 0.0,
        "sweep.cell_s.max": max(cells, default=0.0),
        "sweep.worker_busy_share": sum(cells) / sweep_capacity if sweep_capacity else 0.0,
        "records.McEstimate.from_samples.self_s": self_s("records.McEstimate.from_samples"),
        "sweep.records_to_bytes.self_s": self_s("sweep.records_to_bytes"),
        "sweep.records_to_bytes.bytes": total("sweep.records_to_bytes", "bytes"),
        "sweep.build_id.self_s": self_s("sweep.build_id"),
        "cli.self_s": selfs[top["id"]],
        "rng.RandomStream.generator.calls": calls("rng.RandomStream.generator"),
        "rng.RandomStream.child.calls": calls("rng.RandomStream.child"),
    }
