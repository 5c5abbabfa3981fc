"""Per-layer tracing for the benchmark, installed from the benchmark's own
files; the library source is not touched.

``Tracer.install`` replaces every binding of each public function of the
layer modules (module attributes, names imported into other modules, such
as ``propagation.is_compressible`` or ``cli.run_breadth``, and entries of
module-level dicts and lists, such as the builders in ``core.GENERATORS``)
and the
methods of ``Semilattice`` and ``LogWeight`` with wrappers, and patches the
comparisons and additions of ``fractions.Fraction``.  ``uninstall`` puts
every original back.

There are two kinds of wrapper:

* span wrappers record one span per call (name, parent span, start, end)
  in memory, plus the ``product`` calls and factor items made inside it;
* count-only wrappers sit on the primitives called millions of times
  (``product``, ``member_mask``, ``id_of_mask``, ``leq``, ``iter_factors``,
  ``factors_mask``, weight lookups and ``Fraction`` arithmetic).  A span
  each would cost more than the call itself, so their time stays in the
  self time of the span that called them; their cost per call is what the
  ``core.product.*.ns`` microbenchmark measures.
"""

from __future__ import annotations

import fractions
import gzip
import inspect
import json
import sys
import time
from array import array
from collections import Counter

LAYERS = ("core", "weights", "metrics", "propagation", "breadth",
          "adversarial", "cli")
COUNT_ONLY = ("product", "member_mask", "id_of_mask", "leq", "iter_factors",
              "factors_mask", "__getitem__")
FRACTION_CMP = ("__eq__", "__lt__", "__le__", "__gt__", "__ge__")
FRACTION_ADD = ("__add__", "__radd__")
PRODUCTS = "core.product.calls"
ITEMS = "core.iter_factors.items"


# Counts that only some calls add to; they read 0 when nothing added to them.
EXTRA_COUNTS = (ITEMS, "core.product.table.calls", "core.product.masks.calls",
                "core.product.implicit.calls", "core.factors_mask.hits",
                "weights.lookups", "weights.lazy_lookups",
                "weights.lazy_misses", "weights.fraction_cmp",
                "weights.fraction_add", "cli.stdout_bytes",
                "breadth.is_compressible.compressible", "breadth.breadth.nodes",
                "propagation.propagation_profile.nodes",
                "propagation.fbp_closure.rounds",
                "adversarial.check_eta_subadditive.pairs")


def _result_stats(name, result, c):
    """Counts read off a traced function's return value."""
    if name == "breadth.is_compressible":
        c["breadth.is_compressible.compressible"] += bool(result[0])
    elif name in ("breadth.breadth", "propagation.propagation_profile"):
        c[name + ".nodes"] += result.nodes
    elif name == "propagation.fbp_closure":
        c[name + ".rounds"] += result[1]
    elif name == "adversarial.check_eta_subadditive":
        c[name + ".pairs"] += result.checked_triples


class Tracer:
    def __init__(self):
        self.counts = Counter()
        self.time_ns = Counter()         # inclusive time per traced function
        self.self_ns = Counter()         # self time per layer
        self.names = []                  # span name table
        self.counted = []                # count-only names
        self.spans = array("q")          # flat (name, parent, start, end)
        self._stack = []                 # open spans: [index, child ns, snapshots]
        self._undo = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, fn, name, layer):
        c, stack, spans = self.counts, self._stack, self.spans
        time_ns, self_ns, clock = self.time_ns, self.self_ns, time.perf_counter_ns
        nid = len(self.names)
        self.names.append(name)

        def traced(*args, **kwargs):
            idx = len(spans) // 4
            spans.extend((nid, stack[-1][0] if stack else -1, 0, 0))
            frame = [idx, 0, c[PRODUCTS], c[ITEMS]]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                spans[4 * idx + 2] = t0
                spans[4 * idx + 3] = t1
                self_ns[layer] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                time_ns[name] += dur
                c[name + ".calls"] += 1
                c[name + ".products"] += c[PRODUCTS] - frame[2]
                c[name + ".factor_items"] += c[ITEMS] - frame[3]
            _result_stats(name, result, c)
            return result

        return traced

    def _count_only(self, fn, name):
        c = self.counts
        self.counted.append(name)
        calls = name + ".calls"
        if name == "core.product":
            def product(S, x, y):
                c[PRODUCTS] += 1
                if S.kind == "table":
                    c["core.product.table.calls"] += 1
                elif S._masks is not None:
                    c["core.product.masks.calls"] += 1
                else:
                    c["core.product.implicit.calls"] += 1
                return fn(S, x, y)
            return product
        if name == "core.iter_factors":
            def iter_factors(S, p):
                c[calls] += 1
                for z in fn(S, p):
                    c[ITEMS] += 1
                    yield z
            return iter_factors
        if name == "core.factors_mask":
            def factors_mask(S, p):
                c[calls] += 1
                c["core.factors_mask.hits"] += p in S._factors_cache
                return fn(S, p)
            return factors_mask
        if name == "weights.__getitem__":
            def lookup(lam, x):
                c["weights.lookups"] += 1
                if lam._cache is not None:
                    c["weights.lazy_lookups"] += 1
                    c["weights.lazy_misses"] += x not in lam._cache
                return fn(lam, x)
            return lookup

        def counted(*args):
            c[calls] += 1
            return fn(*args)
        return counted

    def _counter(self, fn, key):
        c = self.counts

        def counted(a, b):
            c[key] += 1
            return fn(a, b)
        return counted

    def _stdout_bytes(self, fn):
        """Bytes each ``cli.main`` call writes to a captured stdout."""
        c = self.counts

        def main(*args, **kwargs):
            out = sys.stdout
            start = out.tell()
            try:
                return fn(*args, **kwargs)
            finally:
                c["cli.stdout_bytes"] += len(out.getvalue()[start:].encode())
        return main

    # -- install / uninstall -------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _set_item(self, container, key, value):
        self._undo.append((container, key, container[key]))
        container[key] = value

    def _rebind(self, mod, wrapped):
        """Point every binding in ``mod`` of a wrapped function at its
        wrapper: module attributes, and the entries of module-level dicts
        and lists, also inside the tuples they hold."""
        for attr, value in list(vars(mod).items()):
            if id(value) in wrapped:
                self._set(mod, attr, wrapped[id(value)])
            elif attr.startswith("__"):
                continue
            elif isinstance(value, (dict, list)):
                slots = value.items() if isinstance(value, dict) \
                    else enumerate(value)
                for key, item in list(slots):
                    new = _swapped(item, wrapped)
                    if new is not item:
                        self._set_item(value, key, new)

    def install(self):
        import slat.cli  # noqa: F401  (the cli layer is not imported by slat)
        from slat.core import Semilattice
        from slat.weights import LogWeight

        modules = {name: sys.modules[f"slat.{name}"] for name in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                w = self._span(fn, f"{layer}.{attr}", layer)
                wrapped[id(fn)] = self._stdout_bytes(w) \
                    if fn is modules["cli"].main else w
        for name, mod in list(sys.modules.items()):
            if name == "slat" or name.startswith("slat."):
                self._rebind(mod, wrapped)

        for cls, layer in ((Semilattice, "core"), (LogWeight, "weights")):
            for attr, value in list(vars(cls).items()):
                if attr.startswith("_") and attr not in COUNT_ONLY:
                    continue
                name = f"{layer}.{attr}"
                if isinstance(value, classmethod):
                    self._set(cls, attr,
                              classmethod(self._span(value.__func__, name, layer)))
                elif inspect.isfunction(value):
                    self._set(cls, attr, self._count_only(value, name)
                              if attr in COUNT_ONLY
                              else self._span(value, name, layer))

        F = fractions.Fraction
        for attr in FRACTION_CMP:
            self._set(F, attr, self._counter(F.__dict__[attr],
                                             "weights.fraction_cmp"))
        for attr in FRACTION_ADD:
            self._set(F, attr, self._counter(F.__dict__[attr],
                                             "weights.fraction_add"))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, (dict, list)):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    # -- results -------------------------------------------------------------

    def metrics(self):
        """Every count and time the trace collected, by metric name."""
        c = Counter(dict.fromkeys(EXTRA_COUNTS, 0))
        c.update(self.counts)
        for name in self.names:
            for stat in ("calls", "products", "factor_items"):
                c.setdefault(f"{name}.{stat}", 0)
        for name in self.counted:
            c.setdefault(name + ".calls", 0)
        out = {f"{layer}.self_s": self.self_ns[layer] / 1e9 for layer in LAYERS}
        for name in self.names:
            out[name + ".s"] = self.time_ns[name] / 1e9
        out.update(c)
        out["weights.validate_logweight.pairs"] = \
            c["weights.validate_logweight.products"]
        out["breadth.is_compressible.compressible_ratio"] = _ratio(
            c["breadth.is_compressible.compressible"],
            c["breadth.is_compressible.calls"])
        out["core.factors_mask.hit_ratio"] = _ratio(
            c["core.factors_mask.hits"], c["core.factors_mask.calls"])
        out["weights.lazy_miss_ratio"] = _ratio(c["weights.lazy_misses"],
                                                c["weights.lazy_lookups"])
        return out

    def write_spans(self, path):
        """Write the spans kept in memory, once, as gzipped JSON."""
        sp = self.spans
        rows = [sp[i:i + 4].tolist() for i in range(0, len(sp), 4)]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "parent", "start_ns", "end_ns"],
                       "names": self.names, "spans": rows}, fh)


def _swapped(item, wrapped):
    """``item`` with wrapped functions replaced by their wrappers; ``item``
    itself when it holds none."""
    if id(item) in wrapped:
        return wrapped[id(item)]
    if isinstance(item, tuple) and any(id(x) in wrapped for x in item):
        return tuple(wrapped.get(id(x), x) for x in item)
    return item


def _ratio(part, whole):
    """``part / whole``, and 0 when nothing was attempted."""
    return part / whole if whole else 0.0
