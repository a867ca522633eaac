"""Spans recorded from outside gramcalc, by wrapping its public functions.

`Tracer.install()` replaces every public function of each layer module, and
the methods of LaurentPoly, GaussianRational, Grammar and TruncSeries, with a
wrapper that records a span: name, start, end and parent.  The replacement
is made wherever the function is looked up, so names bound by
`from ... import` in identities, cli and the other layers are wrapped too.
Spans are kept in flat arrays in memory and written out by `Tracer.write`.

Generator functions are not wrapped (their work runs in the consumer's
span), nor are a few per-structure and per-coefficient helpers that would
cost a span per enumerated tree or per scalar; their time counts as self
time of the span that called them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
from array import array
from time import perf_counter

LAYERS = ("cli", "identities", "families", "grammar", "series", "structures", "laurent", "scalar")
TRACED_CLASSES = {
    "laurent": ("LaurentPoly",),
    "scalar": ("GaussianRational",),
    "grammar": ("Grammar",),
    "series": ("TruncSeries",),
}
UNTRACED = {
    "structures.binary_degree_counts",
    "structures.tree_degree_counts",
    "structures.tree_leaf_count",
    "structures.jv_empty_leaves",
    "scalar.as_scalar",
}
ORACLES = (
    "structures.family_poly_oracle",
    "structures.dumont_plane_oracle",
    "structures.alternating_count",
    "structures.plane_leaf_counts",
)
# run_identity spans are named per identity: IDENTITY_SPAN + name
IDENTITY_SPAN = "identities.run_identity:"
_PUBLIC_DUNDERS = {
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__pow__", "__neg__", "__pos__", "__eq__",
}


def _visited(name, args, result):
    """Structures enumerated by one oracle or count call."""
    if name in ("structures.family_poly_oracle", "structures.dumont_plane_oracle"):
        # the result at all ones; the plane oracle folds 2^f1 into each
        # coefficient, so its v is set to 1/2 to count trees
        halve = name == "structures.dumont_plane_oracle"
        v = result.vars.index("v") if halve else None
        return int(sum(
            coeff / (2 ** exps[v] if halve else 1) for exps, coeff in result.terms.items()
        ))
    if name == "structures.plane_leaf_counts":
        return sum(result.values())
    if name == "structures.alternating_count":
        return math.factorial(args[0])  # it walks every permutation of [n]
    return result  # count_structures


class Tracer:
    def __init__(self):
        self.names = []  # span name per id
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = {"laurent.new.calls": 0, "laurent.mul.term_pairs": 0, "structures.visited": 0}
        self._stack = [-1]
        self._wrapped = {}  # id(original) -> wrapper

    def intern(self, name: str) -> int:
        sid = self._ids.get(name)
        if sid is None:
            sid = self._ids[name] = len(self.names)
            self.names.append(name)
        return sid

    # -- wrappers ------------------------------------------------------------

    def _span(self, fn, name, observe=None, per_call_name=None):
        """Wrap fn in a span; per_call_name(args) names each span instead."""
        sid = self.intern(name)
        intern = self.intern
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack,
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            name_id.append(sid if per_call_name is None else intern(per_call_name(args)))
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(i, args, result)
            return result

        return wrapper

    def _count_new(self, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters["laurent.new.calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observer(self, name):
        counters = self.counters
        if name == "laurent.LaurentPoly.__mul__":
            def observe(i, args, result):
                if result is not NotImplemented:
                    other = args[1]
                    right = len(other.terms) if hasattr(other, "terms") else 1
                    counters["laurent.mul.term_pairs"] += len(args[0].terms) * right
            return observe
        if name in ORACLES or name == "structures.count_structures":
            oracle_ids = {self.intern(o) for o in ORACLES}
            name_id, parent = self.name_id, self.parent

            def observe(i, args, result):
                up = parent[i]
                if up < 0 or name_id[up] not in oracle_ids:
                    counters["structures.visited"] += _visited(name, args, result)
            return observe
        return None

    def _wrap(self, fn, name):
        key = id(fn)
        if key not in self._wrapped:
            if name == "identities.run_identity":
                wrapper = self._span(fn, name, per_call_name=lambda args: IDENTITY_SPAN + args[0])
            elif name == "laurent.LaurentPoly.__init__":
                wrapper = self._count_new(fn)
            else:
                wrapper = self._span(fn, name, self._observer(name))
            self._wrapped[key] = (fn, wrapper)
        return self._wrapped[key][1]

    # -- installation --------------------------------------------------------

    def install(self):
        modules = {layer: importlib.import_module(f"gramcalc.{layer}") for layer in LAYERS}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__
                    or inspect.isgeneratorfunction(obj)
                    or name in UNTRACED
                ):
                    continue
                setattr(module, attr, self._wrap(obj, name))
            for cls_name in TRACED_CLASSES.get(layer, ()):
                self._install_class(layer, getattr(module, cls_name))
        # rebind the names other modules imported with `from ... import`
        wrapped = {key: wrapper for key, (_, wrapper) in self._wrapped.items()}
        for module in list(modules.values()) + [importlib.import_module("gramcalc")]:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    setattr(module, attr, wrapped[id(obj)])

    def _install_class(self, layer, cls):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _PUBLIC_DUNDERS and attr != "__init__":
                continue
            if attr == "__init__" and cls.__name__ != "LaurentPoly":
                continue
            static = isinstance(obj, staticmethod)
            fn = obj.__func__ if static else obj
            if not inspect.isfunction(fn):
                continue  # properties and class constants
            wrapper = self._wrap(fn, f"{layer}.{fn.__qualname__}")
            setattr(cls, attr, staticmethod(wrapper) if static else wrapper)

    # -- output ----------------------------------------------------------------

    def write(self, path):
        """One JSON header line (names, span count), then the name, parent,
        start and end arrays in native byte order."""
        with open(path, "wb") as fh:
            header = {"names": self.names, "spans": len(self.start),
                      "arrays": ["name_id:i", "parent:i", "start:d", "end:d"]}
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)

    def summary(self):
        """Per span name: [calls, self seconds, seconds outside a span of the
        same name]; plus counters and the chain-cache tallies."""
        n = len(self.start)
        names, name_id, parent, start, end = self.names, self.name_id, self.parent, self.start, self.end
        child = [0.0] * n
        for i in range(n):
            up = parent[i]
            if up >= 0:
                child[up] += end[i] - start[i]
        family = self._ids.get("families.family_poly", -2)
        derive = self._ids.get("grammar.Grammar.derive", -2)
        in_family = [-1] * n  # nearest family_poly ancestor (or self)
        derived = set()  # family_poly spans below which a derive ran
        derive_steps = 0
        stats = {}
        for i in range(n):
            sid, up = name_id[i], parent[i]
            in_family[i] = i if sid == family else (in_family[up] if up >= 0 else -1)
            if sid == derive and in_family[i] >= 0:
                derive_steps += 1
                derived.add(in_family[i])
            dur = end[i] - start[i]
            row = stats.setdefault(names[sid], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur - child[i]
            if up < 0 or name_id[up] != sid:
                row[2] += dur
        family_calls = stats.get("families.family_poly", [0])[0]
        return {
            "names": stats,
            "counters": dict(self.counters),
            "family_poly_calls": family_calls,
            "family_poly_hits": family_calls - len(derived),
            "derive_steps": derive_steps,
        }
