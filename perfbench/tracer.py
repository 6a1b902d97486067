"""Outside-in layer tracing of the flatforms package.

The tracer wraps, from outside the package, every public function of
every ``flatforms`` module, the public methods of the classes those
modules define, and their arithmetic operators.  Each wrapper counts
calls and accumulates self time: the time spent in the call minus the
time covered by wrapped calls nested inside it.  Code that is not
wrapped (private helpers, ``Fraction`` arithmetic, numpy and scipy) is
charged to the nearest wrapped caller, so a layer's self time is the
time spent in that layer's code and in the libraries it calls directly.

Entry points (``ENTRY_POINTS``) and benchmark ops additionally record a
full span: name, start, end, parent span and op id.  Leaf calls, which
run in the 10^5 to 10^6 range per pass, are only aggregated in memory.

Every alias is patched: module globals bound by ``from .x import f``,
functions held in module-level dicts (the CLI command table), and
methods through their classes.  Function-local imports resolve the
module attribute at call time and so reach the wrapper as well.

Generator functions are left unwrapped: a wrapper would only time the
creation of the generator, and their bodies run in the consumer anyway.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
import types
from contextlib import contextmanager

MODULES = ("cli", "flatsys", "forms", "instances", "linalg", "mixed",
           "morse", "simplicial", "smoothing", "wkflow")

OPERATORS = frozenset({"__add__", "__radd__", "__sub__", "__neg__",
                       "__mul__", "__rmul__", "__eq__"})

# functions that record a full span besides their aggregate
ENTRY_POINTS = {
    "mixed": ("build_mixed_connection", "build_Iprime", "locality_check",
              "validate_fiber_model"),
    "smoothing": ("partition_default", "validate_partition",
                  "pullback_global", "verify_global", "assemble_I",
                  "verify_chain", "quasi_iso_ranks", "omega_betti"),
    "flatsys": ("validate_system", "extend_system", "cw_boundary",
                "cw_homology", "fiber_homology", "holonomy_on_homology",
                "igusa_export", "igusa_check"),
    "wkflow": ("flow",),
}


def _is_generator(fn) -> bool:
    return bool(fn.__code__.co_flags & inspect.CO_GENERATOR)


def _coeff_bits(c) -> int:
    return max(c.numerator.bit_length(), c.denominator.bit_length())


class Tracer:
    """Wraps the package in place while installed; see the module doc.

    ``stats`` maps ``(layer, qualname)`` to ``[calls, self_s]``;
    ``spans`` holds ``(id, parent, op, name, start, end)`` tuples;
    ``counters`` holds the size counters read off arguments and results.
    """

    def __init__(self):
        self.stats: dict[tuple[str, str], list] = {}
        self.spans: list[tuple] = []
        self.counters = {
            "forms.max_terms": 0,
            "forms.extend_from_boundary.max_degree": 0,
            "forms.extend_shapes": set(),
            "linalg.solve_sparse.max_rows": 0,
            "linalg.solve_sparse.max_cols": 0,
            "linalg.solve_sparse.solved": 0,
            "linalg.rref.max_cells": 0,
            "smoothing.max_ratio_e": 0,
            "smoothing.max_coeff_bits": 0,
        }
        self._stack: list[list] = []       # one [child_time] per open call
        self._span_stack: list[int] = []
        self._next_span = 1
        self._op = None
        self._patches: list[tuple] = []
        self.originals: dict[tuple[str, str], types.FunctionType] = {}

    # -- installation ------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {name: importlib.import_module(f"flatforms.{name}")
                for name in MODULES}
        self._ratio_matrix = mods["smoothing"].RatioMatrix
        wrapped: dict[types.FunctionType, types.FunctionType] = {}
        for layer, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    if not _is_generator(obj):
                        wrapped[obj] = self._wrap(obj, layer, name)
                elif isinstance(obj, type) and not issubclass(obj, BaseException):
                    self._wrap_class(obj, layer)
        for mod in mods.values():
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrapped:
                    self._patch(mod, name, wrapped[obj])
                elif isinstance(obj, dict) and not name.startswith("__"):
                    for key, val in list(obj.items()):
                        if isinstance(val, types.FunctionType) and val in wrapped:
                            self._patch_item(obj, key, wrapped[val])

    def uninstall(self):
        for kind, owner, name, original in reversed(self._patches):
            if kind == "attr":
                setattr(owner, name, original)
            else:
                owner[name] = original
        self._patches.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _patch(self, owner, name, new):
        # vars() keeps a class's classmethod or staticmethod object intact
        self._patches.append(("attr", owner, name, vars(owner)[name]))
        setattr(owner, name, new)

    def _patch_item(self, owner: dict, key, new):
        self._patches.append(("item", owner, key, owner[key]))
        owner[key] = new

    def _wrap_class(self, cls, layer):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in OPERATORS:
                continue
            name = f"{cls.__name__}.{attr}"
            if isinstance(member, types.FunctionType):
                if not _is_generator(member):
                    self._patch(cls, attr, self._wrap(member, layer, name))
            elif isinstance(member, (classmethod, staticmethod)):
                fn = member.__func__
                if isinstance(fn, types.FunctionType) and not _is_generator(fn):
                    kind = type(member)
                    self._patch(cls, attr, kind(self._wrap(fn, layer, name)))

    # -- wrappers ----------------------------------------------------------

    def _observer(self, layer, name):
        table = {
            ("forms", "PolyForm.wedge"): self._obs_terms,
            ("forms", "PolyForm.pullback"): self._obs_terms,
            ("forms", "PolyForm.restrict"): self._obs_terms,
            ("forms", "extend_from_boundary"): self._obs_extend,
            ("linalg", "solve_sparse"): self._obs_solve,
            ("linalg", "rref"): self._obs_rref,
            ("smoothing", "pullback_global"): self._obs_global,
            ("smoothing", "assemble_I"): self._obs_global,
        }
        obs = table.get((layer, name))
        if obs is None and layer == "smoothing":
            obs = self._obs_ratio
        return obs

    def _wrap(self, fn, layer, name):
        key = (layer, name)
        self.originals[key] = fn
        stat = self.stats.setdefault(key, [0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        observe = self._observer(layer, name)
        span_name = f"{layer}.{name}" if name in ENTRY_POINTS.get(layer, ()) else None
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            if span_name is not None:
                span_id = tracer._open_span()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                stat[0] += 1
                stat[1] += t1 - t0 - frame[0]
                if stack:
                    stack[-1][0] += t1 - t0
                if span_name is not None:
                    tracer._close_span(span_id, span_name, t0, t1)
            if observe is not None:
                observe(args, kwargs, result)
                if stack:
                    # observer time is tracing overhead, not the caller's
                    stack[-1][0] += clock() - t1
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _open_span(self) -> int:
        span_id = self._next_span
        self._next_span += 1
        self._span_stack.append(span_id)
        return span_id

    def _close_span(self, span_id, name, t0, t1):
        self._span_stack.pop()
        parent = self._span_stack[-1] if self._span_stack else None
        self.spans.append((span_id, parent, self._op, name, t0, t1))

    @contextmanager
    def op(self, op_id, name):
        """Span and self-time frame around one benchmark op."""
        frame = [0.0]
        self._stack.append(frame)
        prev, self._op = self._op, op_id
        span_id = self._open_span()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            stat = self.stats.setdefault(("bench", "op"), [0, 0.0])
            stat[0] += 1
            stat[1] += t1 - t0 - frame[0]
            self._close_span(span_id, name, t0, t1)
            self._op = prev

    # -- size counters -----------------------------------------------------

    def _bump(self, name, value):
        if value > self.counters[name]:
            self.counters[name] = value

    def _obs_terms(self, args, kwargs, result):
        self._bump("forms.max_terms", len(result.terms))

    def _obs_extend(self, args, kwargs, result):
        k = args[0] if args else kwargs["k"]
        data = args[1] if len(args) > 1 else kwargs["data"]
        self._bump("forms.max_terms", len(result.terms))
        self._bump("forms.extend_from_boundary.max_degree",
                   max((sum(e) for e, _ in result.terms), default=0))
        # one solve shape per nonzero form degree: (k, degree, start degree)
        start = max((sum(e) for f in data for e, _ in f.terms), default=0)
        for r in {len(dxs) for f in data for _, dxs in f.terms}:
            self.counters["forms.extend_shapes"].add((k, r, start))

    def _obs_solve(self, args, kwargs, result):
        rows = args[0] if args else kwargs["rows"]
        ncols = args[2] if len(args) > 2 else kwargs["ncols"]
        self._bump("linalg.solve_sparse.max_rows", len(rows))
        self._bump("linalg.solve_sparse.max_cols", ncols)
        if result[0] is not None:
            self.counters["linalg.solve_sparse.solved"] += 1

    def _obs_rref(self, args, kwargs, result):
        a = args[0] if args else kwargs["a"]
        self._bump("linalg.rref.max_cells", len(a) * (len(a[0]) if a else 0))

    def _obs_ratio(self, args, kwargs, result):
        if type(result) is self._ratio_matrix:
            self._bump("smoothing.max_ratio_e", result.e)

    def _obs_global(self, args, kwargs, result):
        for family in (result.aglob, result.iglob):
            for rm in family.values():
                self._bump("smoothing.max_ratio_e", rm.e)
                bits = [_coeff_bits(c) for c in rm.den.terms.values()]
                for row in rm.num.rows.values():
                    for p in row.values():
                        bits.extend(_coeff_bits(c) for c in p.terms.values())
                self._bump("smoothing.max_coeff_bits", max(bits, default=0))

    # -- results -----------------------------------------------------------

    def calls(self, layer, name) -> int:
        return self.stats.get((layer, name), [0, 0.0])[0]

    def self_s(self, layer, name=None) -> float:
        if name is not None:
            return self.stats.get((layer, name), [0, 0.0])[1]
        return sum(s[1] for (lay, _), s in self.stats.items() if lay == layer)

    def write(self, path):
        """All spans and aggregates as JSON lines."""
        with open(path, "w") as fh:
            for span_id, parent, op, name, t0, t1 in self.spans:
                fh.write(json.dumps({"span": span_id, "parent": parent,
                                     "op": op, "name": name,
                                     "start": t0, "end": t1}) + "\n")
            for (layer, name), (calls, self_s) in sorted(self.stats.items()):
                if calls:
                    fh.write(json.dumps({"layer": layer, "name": name,
                                         "calls": calls,
                                         "self_s": self_s}) + "\n")
            counters = dict(self.counters)
            counters["forms.extend_shapes"] = sorted(counters["forms.extend_shapes"])
            fh.write(json.dumps({"counters": counters}) + "\n")


# per-layer metric -> (layer, wrapped name); the metric reports calls
# and/or self time of that one function
FUNCTIONS = {
    "forms.wedge": ("forms", "PolyForm.wedge"),
    "forms.pullback": ("forms", "PolyForm.pullback"),
    "forms.restrict": ("forms", "PolyForm.restrict"),
    "forms.extend_from_boundary": ("forms", "extend_from_boundary"),
    "smoothing.pullback_global": ("smoothing", "pullback_global"),
    "smoothing.verify_global": ("smoothing", "verify_global"),
    "smoothing.assemble_I": ("smoothing", "assemble_I"),
    "smoothing.verify_chain": ("smoothing", "verify_chain"),
    "mixed.build_mixed_connection": ("mixed", "build_mixed_connection"),
    "mixed.build_Iprime": ("mixed", "build_Iprime"),
    "mixed.locality_check": ("mixed", "locality_check"),
    "mixed.check_value_coherence": ("mixed", "check_value_coherence"),
    "linalg.solve_sparse": ("linalg", "solve_sparse"),
    "linalg.rref": ("linalg", "rref"),
    "flatsys.validate_system": ("flatsys", "validate_system"),
    "flatsys.extend_system": ("flatsys", "extend_system"),
    "flatsys.cw_homology": ("flatsys", "cw_homology"),
    "flatsys.fiber_homology": ("flatsys", "fiber_homology"),
    "flatsys.holonomy_on_homology": ("flatsys", "holonomy_on_homology"),
    "morse.prec": ("morse", "prec"),
    "wkflow.flow": ("wkflow", "flow"),
    "wkflow.wk_eval": ("wkflow", "wk_eval"),
    "wkflow.height": ("wkflow", "height"),
    "wkflow.classify_limits": ("wkflow", "classify_limits"),
}

CALLS = ("forms.wedge", "forms.pullback", "forms.restrict",
         "forms.extend_from_boundary", "linalg.solve_sparse", "linalg.rref",
         "morse.prec", "wkflow.flow", "wkflow.wk_eval", "wkflow.height")

LAYERS = ("forms", "smoothing", "mixed", "linalg", "flatsys", "morse",
          "wkflow", "cli", "instances", "simplicial")

SIZES = {
    "forms.extend_from_boundary.max_degree": "degree",
    "forms.max_terms": "terms",
    "smoothing.max_ratio_e": "exponent",
    "smoothing.max_coeff_bits": "bits",
    "linalg.solve_sparse.max_rows": "rows",
    "linalg.solve_sparse.max_cols": "cols",
    "linalg.rref.max_cells": "cells",
}


def layer_metrics(tracer: Tracer, overhead_s: float) -> dict:
    """Every per-layer metric of a traced pass, as name -> (value, unit)."""
    out = {f"{layer}.self_s": (tracer.self_s(layer), "s") for layer in LAYERS}
    for metric, (layer, name) in FUNCTIONS.items():
        if metric in CALLS:
            out[f"{metric}.calls"] = (tracer.calls(layer, name), "count")
        if metric != "morse.prec":
            out[f"{metric}.self_s"] = (tracer.self_s(layer, name), "s")
    for name, unit in SIZES.items():
        out[name] = (tracer.counters[name], unit)
    out["forms.extend_from_boundary.distinct_shapes"] = (
        len(tracer.counters["forms.extend_shapes"]), "count")
    solves = tracer.calls("linalg", "solve_sparse")
    out["linalg.solve_sparse.solved_ratio"] = (
        tracer.counters["linalg.solve_sparse.solved"] / solves if solves else 0.0,
        "ratio")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out
