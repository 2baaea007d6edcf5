"""Span tracer that wraps circover's public functions from outside the package.

The package imports functions by name (`from .lp import solve_lp`, the
imports at the top of `cli`), so patching one module attribute would miss
most calls. `Tracer.install` therefore rebinds every global of every loaded
`circover.*` module that refers to a traced function. Modules are looked up
in `sys.modules`, because the attribute `circover.optimize` is the function
and shadows the module of the same name.

Spans live in memory as [name, start, end, parent, job, info] lists; `info`
holds counts taken from the call's arguments and result only. A layer's
self time is its span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# module -> functions recorded as spans
TRACED = {
    "cli": ("main",),
    "jsonio": ("load_instance",),
    "lp": ("solve_lp",),
    "optimize": ("optimize", "solve_slice"),
    "separation": ("separate", "assign_costs", "negative_circuit", "cut_loop"),
    "digraph": ("build_digraph", "enumerate_circuits"),
    "inequalities": (
        "circuit_inequality",
        "enumerate_facet_candidates",
        "enumerate_candidates_general",
        "enumerate_circulant_minors",
    ),
    "oracle": ("enumerate_minimal_covers", "hull_facets", "check_facet"),
    "linalg": ("exact_rank",),
    "matrices": ("circulant_isomorphic",),
}

# Called thousands of times per job, so counted without a span.
COUNTED = (("matrices", "CircularMatrix", "support"),)

# Wrapped, yet run by no workload on purpose. `misfired_names` fails if one
# of these fires, so the list cannot silently go stale.
IDLE_BY_DESIGN = {
    "inequalities.enumerate_candidates_general":
        "general-demand candidates call optimize for tau and are LP-bound; "
        "polyhedra keeps to uniform-demand circulants",
}


class TraceError(RuntimeError):
    """The tracer could not bind to a function it is meant to trace."""


def _lp_info(result, objective, rows, *_, **__):
    return (len(rows) * len(objective), result.status == "infeasible")


def _covers_info(result, matrix, demands, *_, **__):
    return ((max(demands, default=0) + 1) ** matrix.n, len(result))


_INFO = {
    "lp.solve_lp": _lp_info,
    "optimize.solve_slice": lambda result, *_, **__: result is not None,
    "separation.separate": lambda result, *_, **__: result.verdict == "violated",
    "separation.cut_loop": lambda result, *_, **__: len(result.steps),
    "digraph.build_digraph": lambda result, *_, **__: len(result.arcs),
    "digraph.enumerate_circuits": lambda result, *_, **__: len(result.circuits),
    "inequalities.enumerate_facet_candidates":
        lambda result, *_, **__: len(result.inequalities),
    "inequalities.enumerate_candidates_general":
        lambda result, *_, **__: len(result.inequalities),
    "inequalities.enumerate_circulant_minors":
        lambda result, *_, **__: len(result.witnesses),
    "oracle.enumerate_minimal_covers": _covers_info,
}


class Tracer:
    """Install with `with Tracer() as t:`; set `t.job` before each job."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.job = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        info = _INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if info is not None:
                span[5] = info(result, *args, **kwargs)
            return result

        return traced

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        if self._patches:
            raise TraceError("tracer already installed")
        wrappers: dict[int, tuple[object, object]] = {}
        for layer, names in TRACED.items():
            module = _module(layer)
            for fname in names:
                fn = vars(module).get(fname)
                if getattr(fn, "__module__", None) != module.__name__:
                    raise TraceError(f"{module.__name__}.{fname} is not defined there")
                wrappers[id(fn)] = (fn, self._span(f"{layer}.{fname}", fn))
        for name, module in list(sys.modules.items()):
            if name != "circover" and not name.startswith("circover."):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._patches.append((module, attr, value))
        for layer, cls_name, meth in COUNTED:
            cls = vars(_module(layer))[cls_name]
            fn = vars(cls)[meth]
            setattr(cls, meth, self._counter(f"{layer}.{meth}", fn))
            self._patches.append((cls, meth, fn))

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    def fired(self) -> set[str]:
        return {span[0] for span in self.spans}


def _module(layer: str):
    try:
        return sys.modules[f"circover.{layer}"]
    except KeyError:
        raise TraceError(f"circover.{layer} is not imported") from None


def misfired_names(fired: set[str]) -> list[str]:
    """Traced names that fired contrary to plan, or did not fire at all."""
    names = [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns]
    return [name for name in names if (name in fired) == (name in IDLE_BY_DESIGN)]


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(end - start) - c for (_, start, end, *_), c in zip(spans, covered)]


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, counts) -> dict[str, float]:
    """The per-layer metrics, from one traced run's spans and counts."""
    selfs = self_times(spans)
    ms: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    infos: dict[str, list] = defaultdict(list)
    for span, own in zip(spans, selfs):
        name = span[0]
        ms[name] += own * 1000.0
        calls[name] += 1
        if span[5] is not None:
            infos[name].append(span[5])
    with_circuit_child = {
        span[3] for span in spans if span[0] == "separation.negative_circuit"
    }
    lexmin = sum(
        1 for span in spans
        if span[0] == "lp.solve_lp" and span[3] >= 0
        and spans[span[3]][0] == "optimize.optimize"
    )
    shortcuts = sum(
        1 for i, span in enumerate(spans)
        if span[0] == "separation.separate" and i not in with_circuit_child
    )
    lp = infos["lp.solve_lp"]
    covers = infos["oracle.enumerate_minimal_covers"]
    box = sum(b for b, _ in covers)
    cand = ("inequalities.enumerate_facet_candidates",
            "inequalities.enumerate_candidates_general")
    return {
        "lp.solve_lp.calls": calls["lp.solve_lp"],
        "lp.solve_lp.self_ms": ms["lp.solve_lp"],
        "lp.cells": sum(c for c, _ in lp),
        "lp.infeasible_ratio": _ratio(sum(f for _, f in lp), len(lp)),
        "optimize.solve_slice.calls": calls["optimize.solve_slice"],
        "optimize.solve_slice.self_ms": ms["optimize.solve_slice"],
        "optimize.feasible_slice_ratio": _ratio(
            sum(infos["optimize.solve_slice"]), len(infos["optimize.solve_slice"])),
        "optimize.lexmin_lps": lexmin,
        "optimize.optimize.self_ms": ms["optimize.optimize"],
        "separation.assign_costs.self_ms": ms["separation.assign_costs"],
        "separation.negative_circuit.calls": calls["separation.negative_circuit"],
        "separation.negative_circuit.self_ms": ms["separation.negative_circuit"],
        "separation.violated_ratio": _ratio(
            sum(infos["separation.separate"]), len(infos["separation.separate"])),
        "separation.shortcut_ratio": _ratio(shortcuts, calls["separation.separate"]),
        "separation.cut_loop.rounds": sum(infos["separation.cut_loop"]),
        "separation.cut_loop.self_ms": ms["separation.cut_loop"],
        "digraph.build_digraph.calls": calls["digraph.build_digraph"],
        "digraph.build_digraph.self_ms": ms["digraph.build_digraph"],
        "digraph.arcs": sum(infos["digraph.build_digraph"]),
        "digraph.enumerate_circuits.self_ms": ms["digraph.enumerate_circuits"],
        "digraph.circuits": sum(infos["digraph.enumerate_circuits"]),
        "inequalities.circuit_inequality.self_ms": ms["inequalities.circuit_inequality"],
        "inequalities.candidates.self_ms": sum(ms[c] for c in cand),
        "inequalities.candidates": sum(sum(infos[c]) for c in cand),
        "inequalities.enumerate_circulant_minors.self_ms":
            ms["inequalities.enumerate_circulant_minors"],
        "inequalities.minors": sum(infos["inequalities.enumerate_circulant_minors"]),
        "oracle.enumerate_minimal_covers.self_ms": ms["oracle.enumerate_minimal_covers"],
        "oracle.box_points": box,
        "oracle.cover_ratio": _ratio(sum(c for _, c in covers), box),
        "oracle.hull_facets.self_ms": ms["oracle.hull_facets"],
        "oracle.check_facet.calls": calls["oracle.check_facet"],
        "oracle.check_facet.self_ms": ms["oracle.check_facet"],
        "linalg.exact_rank.calls": calls["linalg.exact_rank"],
        "linalg.exact_rank.self_ms": ms["linalg.exact_rank"],
        "matrices.support.calls": counts.get("matrices.support", 0),
        "matrices.circulant_isomorphic.self_ms": ms["matrices.circulant_isomorphic"],
        "jsonio.load_instance.self_ms": ms["jsonio.load_instance"],
        "cli.main.self_ms": ms["cli.main"],
    }


def span_shares(spans) -> dict[str, float]:
    """Self time per traced name as a share of the time spent in cli.main."""
    total = sum(end - start for name, start, end, parent, *_ in spans if parent < 0)
    out: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        out[span[0]] += own
    return {name: _ratio(t, total) for name, t in sorted(out.items())}
