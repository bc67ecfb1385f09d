"""Spans around the calls into each package module, kept in memory.

:func:`install` wraps every public function of the package's modules where
it is defined and wherever a sibling module (or the package itself)
imported it by name, so ``decompose_u2`` called from ``correspondence``
is traced too.  A span records the function, the enclosing span, and its
start and end in nanoseconds.  A layer's self time is the sum over its
spans of duration minus the durations of their child spans.

Counts recorded at the same boundaries: calls per function, numpy
``solve``/``inv``/``cond`` calls per calling layer, and quadrature points
requested from ``gram_matrix`` and ``boundary_form_quadrature``.

Only benchmark code uses this module; the package is never edited.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from collections import Counter

import numpy as np

#: Package modules that do work, in dependency order (``errors`` does none).
LAYERS = ("cli", "matrix2", "boundary", "correspondence", "scattering", "deficiency")
LINALG = ("solve", "inv", "cond")
QUADRATURE = ("gram_matrix", "boundary_form_quadrature")


class Tracer:
    def __init__(self):
        self.names: list[tuple[str, str]] = []  # function id -> (layer, name)
        self.fn = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.linalg: Counter[str] = Counter()
        self.quadrature_points = 0

    def wrap(self, layer: str, func):
        fid = len(self.names)
        self.names.append((layer, func.__name__))
        fn, parent, start, end, stack = self.fn, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter_ns
        points = None
        if func.__name__ in QUADRATURE:
            sig = inspect.signature(func)

            def points(args, kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                return 2 * int(bound.arguments["num_points"])  # one grid per half-line

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if points is not None:
                self.quadrature_points += points(args, kwargs)
            i = len(fn)
            fn.append(fid)
            parent.append(stack[-1])
            start.append(clock())
            end.append(0)
            stack.append(i)
            try:
                return func(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def current_layer(self) -> str:
        top = self.stack[-1]
        return self.names[self.fn[top]][0] if top >= 0 else "outside"

    def summary(self) -> dict:
        """Per-layer calls and self time, per-function calls, and the time
        spent inside the package (top-level spans)."""
        fn = np.frombuffer(self.fn, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=fn.size)
        own = dur - child
        layer_of = np.array([LAYERS.index(layer) for layer, _ in self.names] or [0])
        span_layer = layer_of[fn] if fn.size else fn
        calls = np.bincount(span_layer, minlength=len(LAYERS))
        self_ns = np.bincount(span_layer, weights=own, minlength=len(LAYERS))
        per_fn = np.bincount(fn, minlength=len(self.names))
        functions = Counter()
        for fid, (layer, name) in enumerate(self.names):
            functions[f"{layer}.{name}"] += int(per_fn[fid])
        return {
            "layers": {
                layer: {"calls": int(calls[i]), "self_ms": float(self_ns[i]) / 1e6}
                for i, layer in enumerate(LAYERS)
            },
            "functions": dict(functions),
            "linalg": dict(self.linalg),
            "quadrature_points": self.quadrature_points,
            "package_ms": float(dur[~nested].sum()) / 1e6,
            "spans": int(fn.size),
        }


def install(tracer: Tracer):
    """Wrap the package's public functions and numpy's linear solves.

    Returns the imported package, with the wrappers in place.
    """
    package = importlib.import_module("diracjunction")
    modules = {layer: importlib.import_module(f"diracjunction.{layer}") for layer in LAYERS}
    namespaces = [package, *modules.values()]
    for layer, module in modules.items():
        for name, obj in list(vars(module).items()):
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != module.__name__:
                continue
            traced = tracer.wrap(layer, obj)
            for ns in namespaces:
                for alias, value in list(vars(ns).items()):
                    if value is obj:
                        setattr(ns, alias, traced)
    for name in LINALG:
        original = getattr(np.linalg, name)

        def counted(*args, _original=original, **kwargs):
            tracer.linalg[tracer.current_layer()] += 1
            return _original(*args, **kwargs)

        setattr(np.linalg, name, counted)
    return package


# ---------------------------------------------------------------------------
# -X importtime
# ---------------------------------------------------------------------------


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import time (ms) of ``diracjunction``, ``numpy`` and
    ``scipy``, plus the module count and own time of ``diracjunction``.

    A numpy module imported from inside scipy counts towards scipy, so the
    numpy and scipy figures do not overlap.  ``-X importtime`` prints one
    line per module after its imports finish, indented two spaces per
    nesting level; read backwards, every module comes before the modules
    it imported.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue
        name = parts[2].rstrip()
        level = (len(name) - len(name.lstrip())) // 2
        entries.append((level, name.strip(), int(parts[0]), int(parts[1])))
    totals = Counter()
    stack: list[tuple[int, str]] = []

    def under(name: str, package: str) -> bool:
        return name == package or name.startswith(package + ".")

    for level, name, own, cumulative in reversed(entries):
        while stack and stack[-1][0] >= level:
            stack.pop()
        for package, enclosing in (("diracjunction", ("diracjunction",)),
                                   ("numpy", ("numpy", "scipy")), ("scipy", ("numpy", "scipy"))):
            if under(name, package) and not any(
                    under(n, p) for _, n in stack for p in enclosing):
                totals[f"{package}_ms"] += cumulative / 1e3
        if under(name, "diracjunction") or any(under(n, "diracjunction") for _, n in stack):
            totals["modules"] += 1
        if under(name, "diracjunction"):
            totals["self_ms"] += own / 1e3
        stack.append((level, name))
    return dict(totals)
