"""In-memory span recorder that wraps the public functions of each lepage layer.

Tracing lives entirely in the benchmark: ``install`` replaces each layer's
public functions (and the ``Expr`` arithmetic operators, and the scipy names
``lepage.minimal`` binds) with wrappers that record one span per call, then
rebinds every ``lepage.*`` module global that still points at an original, so
``from .expr import diff`` style imports are traced too.  ``restore`` puts the
originals back.

A span is (name, parent span, start, end).  A span's self time is its
duration minus the time its direct children cover; a layer's self time is the
sum over its spans, so the layers partition the traced time exactly.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

# layer name -> modules whose public functions belong to it
LAYER_MODULES = {
    "cli": ("lepage.cli",),
    "expr": ("lepage.expr",),
    "charts": ("lepage.charts",),
    "forms": ("lepage.forms",),
    "equivalents": ("lepage.equivalents",),
    "homogeneity": ("lepage.homogeneity",),
    "variation": ("lepage.variation",),
    "minimal": ("lepage.minimal", "lepage._kernels"),
    "acceptance": ("lepage.acceptance",),
}
LAYERS = tuple(LAYER_MODULES)

# Expr operator -> span name; the reflected forms share the forward span
EXPR_OPERATORS = {
    "__add__": "expr.add", "__radd__": "expr.add",
    "__mul__": "expr.mul", "__rmul__": "expr.mul",
    "__truediv__": "expr.truediv", "__pow__": "expr.pow",
}
# globals of lepage.minimal bound from scipy
MINIMAL_SCIPY = {"spsolve": "minimal.spsolve", "csr_matrix": "minimal.csr_matrix"}
# globals of lepage.cli that render the report
CLI_EMIT = ("_emit", "to_dsl", "to_latex", "form_to_json", "_form_to_latex")


class Tracer:
    """Append-only span arrays plus the stack of open spans."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def __len__(self) -> int:
        return len(self.start)

    def _opener(self):
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def open_span(nid: int) -> int:
            i = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            return i

        def close_span(i: int) -> None:
            end[i] = clock()
            stack.pop()

        return open_span, close_span

    def wrap(self, name: str, fn):
        """Return fn wrapped so that every call records one span."""
        nid = self.name_id(name)
        open_span, close_span = self._opener()

        def traced(*args, **kwargs):
            i = open_span(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(i)

        # updated=() because fn may be a class (csr_matrix)
        return functools.update_wrapper(traced, fn, updated=())

    def span(self, name: str):
        """Context manager recording one span, for the benchmark's own code."""
        return _Span(self, self.name_id(name))

    def summary(self, lo: int = 0, hi: int | None = None) -> dict:
        """Per-name calls, self and total seconds over spans lo..hi-1.

        Spans lo..hi-1 must be closed.  Totals add nested spans of the same
        name twice, so they are meaningful only for non-recursive names.
        """
        import numpy as np

        hi = len(self) if hi is None else hi
        n = hi - lo
        if n <= 0:
            return {"spans": 0, "root_s": 0.0, "names": {}}
        # slicing copies, so no buffer export blocks later appends
        names = np.frombuffer(self.name_of[lo:hi], dtype=np.int32)
        parent = np.frombuffer(self.parent[lo:hi], dtype=np.int32) - lo
        dur = (np.frombuffer(self.end[lo:hi], dtype=np.float64)
               - np.frombuffer(self.start[lo:hi], dtype=np.float64))
        inside = parent >= 0
        cover = np.bincount(parent[inside], weights=dur[inside], minlength=n)
        own = dur - cover
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        self_s = np.bincount(names, weights=own, minlength=k)
        total_s = np.bincount(names, weights=dur, minlength=k)
        out = {self.names[j]: {"calls": int(calls[j]), "self_s": float(self_s[j]),
                               "total_s": float(total_s[j])}
               for j in range(k) if calls[j]}
        return {"spans": n, "root_s": float(dur[~inside].sum()), "names": out}


class _Span:
    __slots__ = ("_open", "_close", "_nid", "_i")

    def __init__(self, tracer: Tracer, nid: int):
        self._open, self._close = tracer._opener()
        self._nid = nid

    def __enter__(self):
        self._i = self._open(self._nid)
        return self

    def __exit__(self, *exc):
        self._close(self._i)
        return False


class Observations:
    """Counters read from arguments and results at the layer boundaries."""

    def __init__(self):
        self.diff_pairs: set = set()
        self.diff_calls = 0
        self.equal_calls = 0
        self.equal_samples = 0
        self.equal_structural = 0
        self.newton_iters = 0

    def to_json(self) -> dict:
        return {"diff_calls": self.diff_calls,
                "diff_distinct": len(self.diff_pairs),
                "equal_calls": self.equal_calls,
                "equal_samples": self.equal_samples,
                "equal_structural": self.equal_structural,
                "newton_iters": self.newton_iters}


def _observe_diff(obs: Observations, fn):
    @functools.wraps(fn)
    def diff(e, s):
        obs.diff_calls += 1
        obs.diff_pairs.add((e, s))
        return fn(e, s)
    return diff


def _observe_equal(obs: Observations, fn):
    @functools.wraps(fn)
    def equal(*args, **kwargs):
        res = fn(*args, **kwargs)
        obs.equal_calls += 1
        obs.equal_samples += res.samples
        if res.verdict == "equal" and res.samples == 0:
            obs.equal_structural += 1
        return res
    return equal


def _observe_solve(obs: Observations, fn):
    @functools.wraps(fn)
    def solve_minimal_surface(*args, **kwargs):
        res = fn(*args, **kwargs)
        obs.newton_iters += res.iterations
        return res
    return solve_minimal_surface


def _observe_run_one(tracer: Tracer, fn):
    # one span name per criterion, so each criterion's time is its own total
    wrapped = {}

    @functools.wraps(fn)
    def run_one(number, seed=0):
        if number not in wrapped:
            wrapped[number] = tracer.wrap(f"acceptance.crit{number}", fn)
        return wrapped[number](number, seed)
    return run_one


_OBSERVERS = {"expr.diff": _observe_diff, "expr.equal": _observe_equal,
              "minimal.solve_minimal_surface": _observe_solve}


def _public_functions(module):
    for name in getattr(module, "__all__", ()):
        obj = getattr(module, name, None)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


def install(tracer: Tracer, obs: Observations):
    """Wrap every layer's public functions; return a function that undoes it."""
    import lepage.cli  # noqa: F401  (imports every layer)
    from lepage.expr import Expr

    saved: list[tuple[object, str, object]] = []
    replaced: dict[int, tuple] = {}  # id(original) -> (original, wrapper)

    def setattr_saved(owner, attr, value):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    for layer, modules in LAYER_MODULES.items():
        for modname in modules:
            module = sys.modules[modname]
            for name, fn in _public_functions(module):
                span = f"{layer}.{name}"
                if modname == "lepage.acceptance" and name == "run_one":
                    wrapper = _observe_run_one(tracer, fn)
                else:
                    inner = fn
                    if span in _OBSERVERS:
                        inner = _OBSERVERS[span](obs, fn)
                    wrapper = tracer.wrap(span, inner)
                replaced[id(fn)] = (fn, wrapper)
    minimal = sys.modules["lepage.minimal"]
    for attr, span in MINIMAL_SCIPY.items():
        fn = getattr(minimal, attr)
        replaced[id(fn)] = (fn, tracer.wrap(span, fn))

    # rebind every lepage global that is one of the wrapped originals
    for modname, module in list(sys.modules.items()):
        if modname != "lepage" and not modname.startswith("lepage."):
            continue
        for attr, value in list(vars(module).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr_saved(module, attr, hit[1])

    for attr, span in EXPR_OPERATORS.items():
        setattr_saved(Expr, attr, tracer.wrap(span, vars(Expr)[attr]))

    cli = sys.modules["lepage.cli"]
    for attr in CLI_EMIT:
        setattr_saved(cli, attr, tracer.wrap("cli.emit", getattr(cli, attr)))

    def restore():
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
    return restore
