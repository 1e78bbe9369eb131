"""Outside-in tracing of solitonlab: spans around its public functions and
counters on the numerical kernels underneath them.

Nothing here edits solitonlab.  For the length of a traced pass,
:class:`Patches` rebinds every module attribute that refers to a traced
function (``cli.petviashvili_solve`` and ``stability.petviashvili_solve``
are separate bindings of one object) to a wrapper, and restores the
originals afterwards, so untraced passes run the program untouched.

Spans are kept in memory and written out when the run ends.  Kernel calls
(FFTs, ``eigh``, ``minres``) do not make spans; they add to counters of the
innermost open span, which attributes them to the layer that issued them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field

import numpy as np

# layer (solitonlab module) -> public functions wrapped in spans; names that
# a module no longer defines are skipped
SPAN_TARGETS = {
    "cli": ("main",),
    "petviashvili": ("petviashvili_solve",),
    "stability": (
        "continue_branch", "d_second", "d_second_at", "d_second_at_omega0",
        "find_omega_c", "find_alpha0", "region_scan",
    ),
    "spectra": ("build_operator", "eigen_report", "negative_direction_scalar"),
    "evolve": ("advance", "energy", "mass", "orbital_distance", "conservation_audit"),
}
TRANSFORM_MODULES = ("numpy.fft", "scipy.fft")
TRANSFORMS = ("fft", "ifft", "rfft", "irfft")
OBSERVERS = ("evolve.energy", "evolve.mass", "evolve.orbital_distance")
THRESHOLD_SEARCHES = ("stability.find_omega_c", "stability.find_alpha0")

# every per-layer metric of a traced run, in report order, with its unit
LAYER_METRICS = (
    ("petviashvili.calls", "count"),
    ("petviashvili.iterations", "count"),
    ("petviashvili.iters_per_solve_p50", "count"),
    ("petviashvili.ms_per_iter", "ms"),
    ("petviashvili.self_s", "s"),
    ("petviashvili.fft_calls", "count"),
    ("petviashvili.fft_s", "s"),
    ("petviashvili.converged_ratio", "ratio"),
    ("petviashvili.warm_share", "ratio"),
    ("stability.self_s", "s"),
    ("stability.solves_per_d2", "count"),
    ("stability.bisection_evals", "count"),
    ("stability.branch_points", "count"),
    ("stability.branch_truncated", "count"),
    ("stability.region_cells", "count"),
    ("stability.region_nan_cells", "count"),
    ("stability.region_s", "s"),
    ("stability.region_parallel_eff", "ratio"),
    ("spectra.build_s", "s"),
    ("spectra.build_bytes", "B"),
    ("spectra.eig_s", "s"),
    ("spectra.eigh_calls", "count"),
    ("spectra.eig_window", "count"),
    ("spectra.chi_s", "s"),
    ("spectra.krylov_steps", "count"),
    ("spectra.fft_calls", "count"),
    ("evolve.advance_s", "s"),
    ("evolve.steps", "count"),
    ("evolve.us_per_step", "us"),
    ("evolve.fft_calls_per_step", "count/step"),
    ("evolve.observer_s", "s"),
    ("evolve.observer_share", "ratio"),
    ("cli.calls", "count"),
    ("cli.self_s", "s"),
    ("cli.bytes_written", "B"),
    ("fft.calls", "count"),
    ("fft.points", "count"),
    ("fft.bytes_computed", "B"),
    ("fft.s", "s"),
    ("trace.overhead", "ratio"),
    ("trace.attributed_share", "ratio"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans
    trace: int  # pass the span belongs to
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder with counters attributed to the innermost span."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.trace = 0
        self.loose: dict[int, dict] = defaultdict(dict)  # counters outside any span

    def begin_pass(self, trace: int) -> None:
        if self.stack:
            raise RuntimeError("a span is still open")
        self.trace = trace

    def open(self, name: str) -> Span:
        parent = self.stack[-1] if self.stack else None
        span = Span(name, time.perf_counter(), float("nan"), parent, self.trace)
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        if self.spans[self.stack[-1]] is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        self.stack.pop()

    def counters(self) -> dict:
        return self.spans[self.stack[-1]].attrs if self.stack else self.loose[self.trace]

    def count(self, key: str, value=1) -> None:
        attrs = self.counters()
        attrs[key] = attrs.get(key, 0) + value

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for s, kids in zip(spans, children):
        covered = union_length(
            (max(spans[c].start, s.start), min(spans[c].end, s.end)) for c in kids
        )
        out.append(s.duration - covered)
    return out


def _children_cpu() -> float:
    t = os.times()
    return t.children_user + t.children_system


# -- hooks: read counts from a traced call's arguments and result ------------

def _solve_before(span, bound):
    guess = getattr(bound.get("config"), "initial_guess", None)
    span.attrs["warm"] = int(guess is not None and not isinstance(guess, str))


def _solve_after(span, bound, result):
    diag = result[1]
    span.attrs["iterations"] = int(diag.iterations)
    span.attrs["converged"] = int(bool(diag.converged))


def _branch_after(span, bound, result):
    span.attrs["points"] = len(result.omegas)
    span.attrs["truncated"] = int(not np.all(result.converged_flags))


def _region_before(span, bound):
    span.attrs["jobs"] = int(bound.get("jobs", 1))
    span.attrs["children_cpu0"] = _children_cpu()


def _region_after(span, bound, result):
    span.attrs["child_cpu"] = _children_cpu() - span.attrs.pop("children_cpu0")
    signs = np.asarray(result.sign_matrix)
    span.attrs["cells"] = int(signs.size)
    span.attrs["nan_cells"] = int(np.isnan(signs).sum())


def _build_after(span, bound, result):
    entries = getattr(result, "entries", None)
    span.attrs["bytes"] = int(entries.nbytes) if entries is not None else 0


def _eigen_after(span, bound, result):
    span.attrs["window"] = len(result.eigenvalues)


def _advance_before(span, bound):
    span.attrs["steps"] = int(bound.get("n_steps", 0))


HOOKS = {
    "petviashvili.petviashvili_solve": (_solve_before, _solve_after),
    "stability.continue_branch": (None, _branch_after),
    "stability.region_scan": (_region_before, _region_after),
    "spectra.build_operator": (None, _build_after),
    "spectra.eigen_report": (None, _eigen_after),
    "evolve.advance": (_advance_before, None),
}


def _span_wrapper(tracer: Tracer, name: str, fn):
    before, after = HOOKS.get(name, (None, None))
    signature = inspect.signature(fn) if (before or after) else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        bound = {}
        if signature is not None:
            ba = signature.bind(*args, **kwargs)
            ba.apply_defaults()
            bound = ba.arguments
        span = tracer.open(name)
        try:
            if before:
                before(span, bound)
            result = fn(*args, **kwargs)
            if after:
                after(span, bound, result)
            return result
        finally:
            tracer.close(span)

    return wrapper


def _transform_wrapper(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(a, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(a, *args, **kwargs)
        elapsed = time.perf_counter() - t0
        arr = np.asarray(a)
        attrs = tracer.counters()
        attrs["fft_calls"] = attrs.get("fft_calls", 0) + 1
        attrs["fft_s"] = attrs.get("fft_s", 0.0) + elapsed
        attrs["fft_points"] = attrs.get("fft_points", 0) + arr.size
        attrs["fft_bytes"] = attrs.get("fft_bytes", 0) + arr.nbytes + out.nbytes
        return out

    return wrapper


def _eigh_wrapper(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.count("eigh_s", time.perf_counter() - t0)
            tracer.count("eigh_calls")

    return wrapper


def _minres_wrapper(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, callback=None, **kwargs):
        steps = 0

        def counting(xk):
            nonlocal steps
            steps += 1
            if callback is not None:
                callback(xk)

        try:
            return fn(*args, callback=counting, **kwargs)
        finally:
            tracer.count("krylov_steps", steps)

    return wrapper


class Patches:
    """Rebinds every binding of a function object to a wrapper, reversibly."""

    def __init__(self) -> None:
        self._undo: list[tuple] = []

    def replace(self, original, replacement, modules) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def restore(self) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()


def install(tracer: Tracer) -> Patches:
    """Wrap the traced functions and kernels; call ``restore()`` to undo."""
    program = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "solitonlab" or n.startswith("solitonlab."))]
    patches = Patches()
    for layer, names in SPAN_TARGETS.items():
        mod = sys.modules.get(f"solitonlab.{layer}")
        for fname in names:
            fn = getattr(mod, fname, None) if mod is not None else None
            if callable(fn):
                patches.replace(fn, _span_wrapper(tracer, f"{layer}.{fname}", fn), program)
    for modname in TRANSFORM_MODULES:
        mod = importlib.import_module(modname)
        for fname in TRANSFORMS:
            fn = getattr(mod, fname)
            patches.replace(fn, _transform_wrapper(tracer, fn), [mod, *program])
    for modname, fname, make in (
        ("scipy.linalg", "eigh", _eigh_wrapper),
        ("scipy.sparse.linalg", "minres", _minres_wrapper),
    ):
        mod = importlib.import_module(modname)
        fn = getattr(mod, fname)
        patches.replace(fn, make(tracer, fn), [mod, *program])
    return patches


# -- per-layer metrics -------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return float(num) / den if den else 0.0


def pass_metrics(tracer: Tracer, selfs: list[float], trace: int, wall_s: float) -> dict:
    """Per-layer metrics of one traced pass (every name of LAYER_METRICS but
    ``trace.overhead``, which compares passes).  A layer the pass never
    entered reports 0."""
    spans = tracer.spans
    idx = [i for i, s in enumerate(spans) if s.trace == trace]
    by_name = defaultdict(list)
    for i in idx:
        by_name[spans[i].name].append(i)

    def dur(*names):
        return sum(spans[i].duration for n in names for i in by_name[n])

    def attr(names, key, agg=sum):
        vals = [spans[i].attrs.get(key, 0) for n in names for i in by_name[n]]
        return agg(vals) if vals else 0

    def layer(prefix):
        return [n for n in by_name if n.startswith(prefix + ".")]

    def layer_self(prefix):
        return sum(selfs[i] for n in layer(prefix) for i in by_name[n])

    def ancestors(i):
        p = spans[i].parent
        while p is not None:
            yield spans[p].name
            p = spans[p].parent

    solve = "petviashvili.petviashvili_solve"
    solves = by_name[solve]
    iters = [spans[i].attrs.get("iterations", 0) for i in solves]
    d2_at = by_name["stability.d_second_at"]
    solves_in_d2 = sum(
        1 for i in solves
        if spans[i].parent is not None and spans[spans[i].parent].name == "stability.d_second_at"
    )
    region = by_name["stability.region_scan"]
    region_capacity = sum(spans[i].attrs.get("jobs", 1) * spans[i].duration for i in region)
    steps = attr(["evolve.advance"], "steps")
    observer_s = dur(*OBSERVERS)
    loose = tracer.loose[trace]
    every = [spans[i].attrs for i in idx] + [loose]
    roots = sum(spans[i].duration for i in idx if spans[i].parent is None)

    return {
        "petviashvili.calls": len(solves),
        "petviashvili.iterations": sum(iters),
        "petviashvili.iters_per_solve_p50": statistics.median(iters) if iters else 0,
        "petviashvili.ms_per_iter": 1e3 * _ratio(dur(solve), sum(iters)),
        "petviashvili.self_s": layer_self("petviashvili"),
        "petviashvili.fft_calls": attr(layer("petviashvili"), "fft_calls"),
        "petviashvili.fft_s": attr(layer("petviashvili"), "fft_s"),
        "petviashvili.converged_ratio": _ratio(attr([solve], "converged"), len(solves)),
        "petviashvili.warm_share": _ratio(attr([solve], "warm"), len(solves)),
        "stability.self_s": layer_self("stability"),
        "stability.solves_per_d2": _ratio(solves_in_d2, len(d2_at)),
        "stability.bisection_evals": sum(
            1 for i in d2_at if any(a in THRESHOLD_SEARCHES for a in ancestors(i))
        ),
        "stability.branch_points": attr(["stability.continue_branch"], "points"),
        "stability.branch_truncated": attr(["stability.continue_branch"], "truncated"),
        "stability.region_cells": attr(["stability.region_scan"], "cells"),
        "stability.region_nan_cells": attr(["stability.region_scan"], "nan_cells"),
        "stability.region_s": dur("stability.region_scan"),
        "stability.region_parallel_eff": _ratio(
            attr(["stability.region_scan"], "child_cpu"), region_capacity
        ),
        "spectra.build_s": dur("spectra.build_operator"),
        "spectra.build_bytes": attr(["spectra.build_operator"], "bytes"),
        "spectra.eig_s": dur("spectra.eigen_report"),
        "spectra.eigh_calls": sum(a.get("eigh_calls", 0) for a in every),
        "spectra.eig_window": attr(["spectra.eigen_report"], "window", max),
        "spectra.chi_s": dur("spectra.negative_direction_scalar"),
        "spectra.krylov_steps": sum(a.get("krylov_steps", 0) for a in every),
        "spectra.fft_calls": attr(layer("spectra"), "fft_calls"),
        "evolve.advance_s": dur("evolve.advance"),
        "evolve.steps": steps,
        "evolve.us_per_step": 1e6 * _ratio(dur("evolve.advance"), steps),
        "evolve.fft_calls_per_step": _ratio(attr(["evolve.advance"], "fft_calls"), steps),
        "evolve.observer_s": observer_s,
        "evolve.observer_share": _ratio(observer_s, wall_s),
        "cli.calls": len(by_name["cli.main"]),
        "cli.self_s": layer_self("cli"),
        "cli.bytes_written": loose.get("cli_bytes_written", 0),
        "fft.calls": sum(a.get("fft_calls", 0) for a in every),
        "fft.points": sum(a.get("fft_points", 0) for a in every),
        "fft.bytes_computed": sum(a.get("fft_bytes", 0) for a in every),
        "fft.s": sum(a.get("fft_s", 0.0) for a in every),
        "trace.attributed_share": _ratio(roots, wall_s),
    }
