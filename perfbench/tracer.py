"""Per-layer spans recorded from outside the program.

``Tracer.install`` wraps the public functions of each ``hierot`` module and
the listed ``Manifold`` methods, replacing every module binding of the
original (``from x import f`` copies included), and ``uninstall`` puts the
originals back.  A span is opened per call; a layer's self time is its spans'
time minus that of their child spans.  A call of a function from inside its
own open span (recursion, possibly through private helpers) is folded into
that span, but still counted.  A function the program no longer has is
skipped.

Counts are kept at the same boundaries: solves and their cells, level >= 2
cost entries, optimal velocity plans, gradient steps and JSON bytes out.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

# (layer, module, names); names None means every public function the module
# defines itself
LAYERS = (
    ("exact_ot", "hierot.exact_ot", ("solve_ot", "verify_optimality")),
    ("wasserstein", "hierot.wasserstein", None),
    ("plans", "hierot.plans", None),
    ("geodesics", "hierot.geodesics", None),
    ("functionals", "hierot.functionals", None),
    ("serialization", "hierot.serialization", None),
    ("checks", "hierot.checks", None),
)
MANIFOLD_METHODS = ("pairwise_sq_dist", "dist", "exp", "log", "parallel_transport")

SERIALIZATION_LOAD = ("load_measure", "load_plan", "measure_from_obj",
                      "plan_from_obj", "functional_spec_from_obj")
LARGE_SIDE = 16
SMALL_SIDE = 8

# reported per operation, in this order (metric name -> unit)
PER_LAYER = {
    "exact_ot.self_ms.large": "ms",
    "exact_ot.self_ms.small": "ms",
    "exact_ot.self_ms": "ms",
    "exact_ot.calls": "count",
    "exact_ot.cells": "count",
    "wasserstein.cost_entries": "count",
    "wasserstein.self_ms": "ms",
    "wasserstein.memo_entries": "count",
    "manifolds.self_ms": "ms",
    "plans.self_ms": "ms",
    "geodesics.self_ms": "ms",
    "geodesics.ovp_calls": "count",
    "functionals.self_ms": "ms",
    "functionals.step_calls": "count",
    "serialization.load_ms": "ms",
    "serialization.save_ms": "ms",
    "serialization.bytes_out": "count",
    "checks.self_ms": "ms",
    "other.self_ms": "ms",
}


class _Span:
    __slots__ = ("sid", "fn", "layer", "name", "key", "start", "child", "parent")

    def __init__(self, sid, fn, layer, name, key, start, parent):
        self.sid = sid
        self.fn = fn
        self.layer = layer
        self.name = name
        self.key = key
        self.start = start
        self.child = 0.0
        self.parent = parent


def _solve_class(args, kwargs):
    c = args[0] if args else kwargs.get("c")
    m, k = getattr(c, "shape", (0, 0))
    side = max(m, k)
    if side >= LARGE_SIDE:
        return "large", m * k
    if side <= SMALL_SIDE:
        return "small", m * k
    return "medium", m * k


class Tracer:
    def __init__(self, keep_spans: bool = False):
        self.stack = []
        self.self_s = defaultdict(float)     # layer or layer.class -> seconds
        self.incl_s = defaultdict(float)     # serialization load/save -> seconds
        self.counts = defaultdict(int)
        self.keep_spans = keep_spans
        self.spans = []                      # (id, name, layer, start, end, parent id)
        self._next_id = 0
        self.skipped = []
        self._patched = []                   # (owner, attr, original)

    # -- spans ------------------------------------------------------------

    def span(self, fn, layer, name, call, key=None):
        """Run ``call()`` inside a span; returns its result."""
        parent = self.stack[-1] if self.stack else None
        self._next_id += 1
        sp = _Span(self._next_id, fn, layer, name, key, time.perf_counter(), parent)
        self.stack.append(sp)
        try:
            return call()
        finally:
            end = time.perf_counter()
            self.stack.pop()
            dt = end - sp.start
            if parent is not None:
                parent.child += dt
            self_time = dt - sp.child
            self.self_s[layer] += self_time
            if key is not None:
                self.self_s[key] += self_time
            if layer == "serialization" and (parent is None or parent.layer != "serialization"):
                kind = "load" if name in SERIALIZATION_LOAD else "save"
                self.incl_s[kind] += dt
            if self.keep_spans:
                self.spans.append((sp.sid, name, layer, sp.start, end,
                                   None if parent is None else parent.sid))

    def _wrapper(self, layer, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            key = None
            if name == "solve_ot":
                cls, cells = _solve_class(args, kwargs)
                tracer.counts["exact_ot.calls"] += 1
                tracer.counts["exact_ot.cells"] += cells
                key = f"exact_ot.{cls}"
            elif name == "cost_matrix":
                mu, nu = args[0], args[1]
                if getattr(mu, "level", 0) >= 2:
                    tracer.counts["wasserstein.cost_entries"] += len(mu.atoms) * len(nu.atoms)
            elif name == "optimal_velocity_plan":
                tracer.counts["geodesics.ovp_calls"] += 1
            elif name == "gradient_step":
                tracer.counts["functionals.step_calls"] += 1
            stack = tracer.stack
            if stack and stack[-1].fn is fn:
                result = fn(*args, **kwargs)
            else:
                result = tracer.span(fn, layer, name, lambda: fn(*args, **kwargs), key)
            if name == "dumps" and isinstance(result, str):
                tracer.counts["serialization.bytes_out"] += len(result.encode())
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation -----------------------------------------------------

    def _targets(self):
        for layer, modname, names in LAYERS:
            try:
                mod = importlib.import_module(modname)
            except ImportError:
                self.skipped.append(modname)
                continue
            if names is None:
                names = [n for n, f in inspect.getmembers(mod, inspect.isfunction)
                         if not n.startswith("_") and f.__module__ == modname]
            for name in names:
                fn = getattr(mod, name, None)
                if not callable(fn):
                    self.skipped.append(f"{modname}.{name}")
                    continue
                yield layer, name, fn
        try:
            manifold_cls = importlib.import_module("hierot.manifolds").Manifold
        except (ImportError, AttributeError):
            self.skipped.append("hierot.manifolds.Manifold")
            return
        for name in MANIFOLD_METHODS:
            fn = manifold_cls.__dict__.get(name)
            if fn is None:
                self.skipped.append(f"Manifold.{name}")
                continue
            yield "manifolds", name, fn

    def install(self) -> "Tracer":
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "hierot" or n.startswith("hierot."))]
        for layer, name, fn in list(self._targets()):
            wrapped = self._wrapper(layer, name, fn)
            if layer == "manifolds":
                owner = sys.modules["hierot.manifolds"].Manifold
                self._patched.append((owner, name, fn))
                setattr(owner, name, wrapped)
                continue
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patched.append((mod, attr, fn))
                        setattr(mod, attr, wrapped)
        return self

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    # -- results ----------------------------------------------------------

    def op_span(self, call):
        """Run one whole command as the root span (layer ``other``)."""
        return self.span(None, "other", "command", call)

    def times(self):
        """A copy of the time totals, for ``rescale``."""
        return dict(self.self_s), dict(self.incl_s)

    def rescale(self, before, factor: float) -> None:
        """Multiply the time added since ``before = times()`` by ``factor``."""
        for totals, old in zip((self.self_s, self.incl_s), before):
            for key, value in totals.items():
                base = old.get(key, 0.0)
                totals[key] = base + (value - base) * factor


def per_layer_metrics(tracer: Tracer, n_ops: int, memo_entries: float) -> dict:
    """Per-operation means of the tracer's totals, as the per-layer metrics."""
    s, c = tracer.self_s, tracer.counts
    ms = {
        "exact_ot.self_ms.large": s["exact_ot.large"],
        "exact_ot.self_ms.small": s["exact_ot.small"],
        "exact_ot.self_ms": s["exact_ot"],
        "wasserstein.self_ms": s["wasserstein"],
        "manifolds.self_ms": s["manifolds"],
        "plans.self_ms": s["plans"],
        "geodesics.self_ms": s["geodesics"],
        "functionals.self_ms": s["functionals"],
        "serialization.load_ms": tracer.incl_s["load"],
        "serialization.save_ms": tracer.incl_s["save"],
        "checks.self_ms": s["checks"],
        "other.self_ms": s["other"],
    }
    out = {}
    for name, unit in PER_LAYER.items():
        if name in ms:
            value = 1000.0 * ms[name] / n_ops
        elif name == "wasserstein.memo_entries":
            value = memo_entries
        else:
            value = c[name] / n_ops
        out[name] = {"value": value, "unit": unit}
    return out
