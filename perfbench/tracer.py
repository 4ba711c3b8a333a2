"""Span tracer installed from outside the program, by rebinding its public functions.

Every listed function is replaced by a wrapper at every binding that holds it:
the module attribute, each from-import copy in another qcplane module (for
example ``bott.represent``, ``bott.multiply``, ``represent.build`` and
``represent.spectral_function``), the package namespace, and class aliases
such as ``__radd__ = __add__``.  ``uninstall`` puts the originals back.

Spans live in memory as parallel lists (name, start, end, parent, job id) and
are written out once, at the end of the run.  A layer's self time is its
spans' duration minus the part covered by their child spans.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from time import perf_counter

import numpy.linalg

# (module, attribute path) of every function timed by a span.
SPANS = (
    ("cli", "main"), ("cli", "load_config"),
    ("qspace", "uniform_measure"), ("qspace", "contains"),
    ("qnormal", "build"), ("qnormal", "verify_relation"), ("qnormal", "verify_covariance"),
    ("qnormal", "polar_check"), ("qnormal", "spectral_function"),
    ("matrixops", "adjoint"), ("matrixops", "scale"), ("matrixops", "compress"),
    ("matrixops", "defect_norm"), ("matrixops", "shift_power"), ("matrixops", "to_float"),
    ("matrixops", "max_entry_gap"),
    ("represent", "represent"), ("represent", "norm_estimate"),
    ("represent", "z_transform"), ("represent", "pi_image"),
    ("algebra", "multiply"), ("algebra", "adjoint"), ("algebra", "element_residual"),
    ("algebra", "parse_element"),
    ("ratfunc", "RationalFunction.__mul__"), ("ratfunc", "RationalFunction.__add__"),
    ("ratfunc", "RationalFunction.evaluate"), ("ratfunc", "RationalFunction.substitute_scale"),
    ("ratfunc", "RationalFunction.denominator_spotcheck"),
    ("bott", "bott_projection"), ("bott", "verify_projection_exact"),
    ("bott", "verify_projection_numeric"), ("bott", "winding_diagnostic"),
)

# Functions whose calls are counted without a span: they run millions of times.
COUNTS = (
    ("scalars", "RationalComplex.__mul__"), ("scalars", "RationalComplex.__add__"),
    ("scalars", "RationalComplex.__truediv__"),
)

# numpy.linalg entry points the program calls; time in them under a qcplane
# span is reported as represent.lapack_s.
LINALG = ("norm", "eigh", "matrix_power")
LINALG_PREFIX = "numpy.linalg."


def span_name(module: str, path: str) -> str:
    return f"{module}.{path}"


@dataclass
class Binding:
    owner: object
    attr: str
    original: object


def _resolve(module: str, path: str):
    obj = sys.modules[f"qcplane.{module}"]
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def _find_bindings(module: str, path: str) -> list[Binding]:
    """Every place in the qcplane namespaces that holds the named function."""
    target = _resolve(module, path)
    owners = [m for name, m in sorted(sys.modules.items())
              if m is not None and (name == "qcplane" or name.startswith("qcplane."))]
    if "." in path:
        owners = [_resolve(module, path.rsplit(".", 1)[0])]
    found = []
    for owner in owners:
        for attr, value in list(vars(owner).items()):
            if value is target:
                found.append(Binding(owner, attr, target))
    return found


class Tracer:
    """Owns the spans, counters and patched bindings of one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.job: list[str] = []
        self.stack: list[int] = []
        self.counts: dict[str, list[int]] = {}
        self.dense_ops = 0
        self.max_degree = 0
        self.current_job = "setup"
        self.missing: list[str] = []
        self._bindings: list[Binding] = []

    # -- wrappers

    def _span(self, name: str, fn, after=None):
        names, start, end, parent, job, stack = (self.names, self.start, self.end,
                                                 self.parent, self.job, self.stack)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(name)
            parent.append(stack[-1] if stack else -1)
            job.append(self.current_job)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _counter(self, name: str, fn):
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args):
            cell[0] += 1
            return fn(*args)
        return wrapper

    def _after_represent(self, args, result):
        a, T = args[0], args[1]
        if T.exact:
            self.dense_ops += T.dim ** 3 * len(a.terms)

    def _after_multiply(self, args, result):
        for _, f in result.terms:
            rf = getattr(f, "rf", None)
            if rf is not None:
                self.max_degree = max(self.max_degree, rf.degree_num, rf.degree_den)

    # -- install / uninstall

    def _patch(self, module: str, path: str, make):
        try:
            bindings = _find_bindings(module, path)
        except AttributeError:
            self.missing.append(span_name(module, path))
            return
        wrapper = make(bindings[0].original)
        for b in bindings:
            setattr(b.owner, b.attr, wrapper)
        self._bindings += bindings

    def install(self) -> None:
        self.missing = []
        after = {("represent", "represent"): self._after_represent,
                 ("algebra", "multiply"): self._after_multiply}
        for module, path in SPANS:
            name = span_name(module, path)
            self._patch(module, path,
                        lambda fn, n=name, a=after.get((module, path)): self._span(n, fn, a))
        for module, path in COUNTS:
            name = span_name(module, path)
            self._patch(module, path, lambda fn, n=name: self._counter(n, fn))
        for fn_name in LINALG:
            original = getattr(numpy.linalg, fn_name)
            self._bindings.append(Binding(numpy.linalg, fn_name, original))
            setattr(numpy.linalg, fn_name, self._span(LINALG_PREFIX + fn_name, original))

    def uninstall(self) -> None:
        for b in reversed(self._bindings):
            setattr(b.owner, b.attr, b.original)
        self._bindings.clear()

    # -- results

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """calls and self_s per listed span, the computed counters, and lapack_s."""
        child = [0.0] * len(self.names)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        lapack = 0.0
        for i, name in enumerate(self.names):
            dur = self.end[i] - self.start[i]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + dur - child[i]
            if name.startswith(LINALG_PREFIX) and self.parent[i] >= 0:
                lapack += dur
        out: dict[str, tuple[float, str]] = {}
        for module, path in SPANS:
            name = span_name(module, path)
            out[f"{name}.calls"] = (calls.get(name, 0), "count")
            out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
        for module, path in COUNTS:
            name = span_name(module, path)
            out[f"{name}.calls"] = (self.counts.get(name, [0])[0], "count")
        out["represent.dense_ops"] = (self.dense_ops, "count")
        out["represent.lapack_s"] = (lapack, "s")
        out["ratfunc.max_degree"] = (self.max_degree, "degree")
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start,end,parent,job\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i},{name},{self.start[i]!r},{self.end[i]!r},"
                         f"{self.parent[i]},{self.job[i]}\n")
