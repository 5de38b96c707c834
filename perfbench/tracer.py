"""Outside-in span tracer for the gausscolloc layers.

Nothing inside the package changes.  The tracer replaces a layer's public
function at the module attribute through which callers reach it (for
example ``gausscolloc.solver.solve_state``, which ``solve`` looks up at
call time) with a wrapper that records a span, and wraps a problem's
callbacks with ``dataclasses.replace``.  A span is (name, start, end,
parent, operation id, exception type); spans are kept in flat arrays in
memory and written out once the run ends.
"""
from __future__ import annotations

import dataclasses
import gzip
import sys
import time
from array import array
from contextlib import contextmanager
from functools import wraps
from typing import NamedTuple

# Public functions of the seven layers that the workloads reach.  Each is
# wrapped in every layer module that holds it as an attribute, so a call
# passes through exactly one wrapper: the one at the caller's module.
LAYER_FUNCTIONS = (
    "gauss_rule", "radau_rule", "legendre_table",
    "build_operators", "solve_D1N", "check_P1", "check_P2", "barycentric_matrix",
    "builtin",
    "eval_residual",
    "solve", "solve_state", "solve_costate",
    "verify_appendix1", "verify_appendix2", "run_interp_suite",
)
LAYER_MODULES = ("quadrature", "diffmat", "problem", "transcription",
                 "solver", "analysis", "cli")
CALLBACK_PREFIX = "problem.callback."


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    op: int
    error: str | None


class Tracer:
    """Records nested spans of wrapped calls in one thread."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._names = []
        self._name_ids = {}
        self.reset()

    def reset(self):
        """Drop recorded spans; span indices start again at 0."""
        self._name = array("l")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("l")
        self._op = array("l")
        self._errors = {}
        self._stack = []
        self.op = -1

    def wrap(self, name, fn):
        """Return ``fn`` wrapped so every call records a span ``name``."""
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        clock = self._clock

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self._start)
            self._name.append(nid)
            self._parent.append(self._stack[-1] if self._stack else -1)
            self._op.append(self.op)
            self._end.append(0.0)
            self._stack.append(idx)
            self._start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                self._errors[idx] = type(exc).__name__
                raise
            finally:
                self._end[idx] = clock()
                self._stack.pop()

        return traced

    def spans(self):
        names = self._names
        return [Span(names[self._name[i]], self._start[i], self._end[i],
                     self._parent[i], self._op[i], self._errors.get(i))
                for i in range(len(self._start))]

    @contextmanager
    def installed(self, package):
        """Wrap every layer function at each loaded layer module of ``package``."""
        patched = []
        try:
            for modname in LAYER_MODULES:
                module = sys.modules.get(f"{package.__name__}.{modname}")
                if module is None:
                    continue
                for attr in LAYER_FUNCTIONS:
                    fn = getattr(module, attr, None)
                    if fn is None:
                        continue
                    layer = fn.__module__.rsplit(".", 1)[-1]
                    setattr(module, attr, self.wrap(f"{layer}.{fn.__name__}", fn))
                    patched.append((module, attr, fn))
            yield self
        finally:
            for module, attr, fn in reversed(patched):
                setattr(module, attr, fn)

    def traced_problem(self, problem):
        """Copy of ``problem`` whose callable fields record spans."""
        callbacks = {f.name: getattr(problem, f.name)
                     for f in dataclasses.fields(problem)
                     if callable(getattr(problem, f.name))}
        return dataclasses.replace(problem, **{
            name: self.wrap(CALLBACK_PREFIX + name, fn)
            for name, fn in callbacks.items()})


def summarize(spans):
    """Per span name: calls, inclusive seconds ``s``, ``self_s`` and errors.

    Self time is a span's duration minus the durations of its direct
    children; spans of one thread nest, so children never overlap.
    """
    child = [0.0] * len(spans)
    for sp in spans:
        if sp.parent >= 0:
            child[sp.parent] += sp.end - sp.start
    out = {}
    for i, sp in enumerate(spans):
        agg = out.get(sp.name)
        if agg is None:
            agg = out[sp.name] = {"calls": 0, "s": 0.0, "self_s": 0.0, "errors": 0}
        dur = sp.end - sp.start
        agg["calls"] += 1
        agg["s"] += dur
        agg["self_s"] += dur - child[i]
        agg["errors"] += sp.error is not None
    return out


def merge(summaries):
    """Add several summaries name by name."""
    out = {}
    for summary in summaries:
        for name, agg in summary.items():
            acc = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "errors": 0})
            for key in acc:
                acc[key] += agg[key]
    return out


def write_spans(path, spans):
    """Write spans as gzip CSV; times are nanoseconds of the recording
    process's performance counter."""
    with gzip.open(path, "wt") as fh:
        fh.write("id,parent,op,name,start_ns,end_ns,error\n")
        for i, sp in enumerate(spans):
            fh.write(f"{i},{sp.parent},{sp.op},{sp.name},{int(sp.start * 1e9)},"
                     f"{int(sp.end * 1e9)},{sp.error or ''}\n")
