"""Per-layer tracing from outside the program.

`Tracer.install` wraps every public function of each normset_lab module,
in every normset_lab namespace that binds it (the package imports with
`from .x import y`, so patching only the defining module would miss
callers), plus the methods that carry the factorization and membership
work. Wrapped calls record spans (name, start, end, parent, operation id)
in memory; hot leaf functions only count calls. Self time is a span's
duration minus the time its child spans cover. Nothing is wrapped in an
untraced run.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from array import array
from math import isqrt

LAYERS = ("arith", "quadratic", "class_groups", "normsets", "monoid_core",
          "hfd_lab", "valnet_sim", "cli")
# called hundreds of thousands of times per round; spans would swamp them
COUNT_ONLY = {"arith.is_square", "quadratic.units", "quadratic.QuadElem.__mul__",
              "valnet_sim.net_add", "valnet_sim.net_leq", "valnet_sim.make_net",
              "valnet_sim.net_sub"}
METHODS = (("quadratic", "QuadElem", "__mul__"), ("quadratic", "QuadElem", "__rmul__"),
           ("monoid_core", "FactorSession", "factorizations"),
           ("monoid_core", "FactorSession", "is_atom"),
           ("normsets", "NormsetHandle", "contains"),
           ("valnet_sim", "NetMonoid", "contains"))
# private helpers traced for their window-size counters
EXTRA = (("monoid_core", "_window_members"),)
GROUP_BUILDERS = ("class_group_imaginary", "narrow_class_group_real", "class_group_real")
WINDOW_PREDICATES = ("monoid_core.is_hfm_window", "monoid_core.is_length_factorial_window",
                     "monoid_core.is_ufm_window", "monoid_core.elasticity_window")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.counts: dict[str, int] = {}
        self.extra = {"b_scanned": 0, "eon_hits": 0, "contains_hits": 0,
                      "facts_hits": 0, "session_spent": 0, "window_elements": 0}
        self._stack: list[int] = []
        self._op = -1
        self._undo: list = []
        self._handles: dict = {}
        self._sessions: dict = {}
        self._cached = {}

    # -- wrappers ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _counter(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _spanner(self, name, fn, after=None):
        fid = self._id(name)
        stack, clock = self._stack, time.perf_counter_ns
        sn, sp, so, ss, se = (self.span_name, self.span_parent, self.span_op,
                              self.span_start, self.span_end)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(sn)
            sn.append(fid)
            sp.append(stack[-1] if stack else -1)
            so.append(tracer._op)
            se.append(0)
            stack.append(idx)
            ss.append(clock())
            try:
                res = fn(*args, **kwargs)
            finally:
                se[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, res)
            return res
        return wrapper

    def _wrap(self, name, fn, hooks):
        if name in COUNT_ONLY:
            return self._counter(name, fn)
        return self._spanner(name, fn, hooks.get(name))

    def _after_hooks(self):
        ex = self.extra

        def eon(args, kwargs, res):
            order, m = args[0], args[1]
            sb = args[2] if len(args) > 2 else kwargs.get("search_bound")
            ex["b_scanned"] += _b_scanned(order, m, sb)
            ex["eon_hits"] += len(res)

        def window(args, kwargs, res):
            ex["window_elements"] += len(res)

        return {"quadratic.elements_of_norm": eon, "monoid_core._window_members": window}

    def _method(self, layer, cls_name, meth, fn):
        name = f"{layer}.{cls_name}.{meth}"
        if name in COUNT_ONLY or meth == "__rmul__":
            return self._counter("quadratic.QuadElem.__mul__" if meth == "__rmul__" else name, fn)
        ex, handles, sessions = self.extra, self._handles, self._sessions
        if cls_name == "NormsetHandle":
            def before(obj, x, *rest):
                seen = handles.setdefault(id(obj), (obj, set()))[1]
                key = (x, rest[0] if rest else None)
                ex["contains_hits"] += key in seen
                seen.add(key)
        elif meth == "factorizations":
            def before(obj, x, *rest):
                seen = sessions.setdefault(id(obj), (obj, set()))[1]
                key = obj.view.key(x)
                ex["facts_hits"] += key in seen
                seen.add(key)
        elif cls_name == "FactorSession":
            def before(obj, x, *rest):
                sessions.setdefault(id(obj), (obj, set()))
        else:
            before = None
        inner = self._spanner(name, fn)
        if before is None:
            return inner

        @functools.wraps(fn)
        def wrapper(obj, *args, **kwargs):
            before(obj, *args)
            return inner(obj, *args, **kwargs)
        return wrapper

    # -- install / uninstall ---------------------------------------------

    def install(self):
        modules = {layer: importlib.import_module(f"normset_lab.{layer}") for layer in LAYERS}
        namespaces = [m for k, m in sys.modules.items()
                      if k == "normset_lab" or k.startswith("normset_lab.")]
        targets = []
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") and (layer, attr) not in EXTRA:
                    continue
                base = getattr(obj, "__wrapped__", obj)
                if inspect.isfunction(base) and base.__module__ == mod.__name__:
                    targets.append((f"{layer}.{attr}", obj))
        self._cached = {b: getattr(modules["class_groups"], b) for b in GROUP_BUILDERS}
        hooks = self._after_hooks()
        for name, obj in targets:
            wrapped = self._wrap(name, obj, hooks)
            for ns in namespaces:
                for attr, val in list(vars(ns).items()):
                    if val is obj:
                        self._undo.append((ns, attr, obj))
                        setattr(ns, attr, wrapped)
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name)
            fn = cls.__dict__[meth]
            self._undo.append((cls, meth, fn))
            setattr(cls, meth, self._method(layer, cls_name, meth, fn))

    def uninstall(self):
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo.clear()

    def begin_op(self, op_id: int):
        self._op = op_id

    def end_op(self):
        self.extra["session_spent"] += sum(s.spent for s, _ in self._sessions.values())
        self._sessions.clear()
        self._handles.clear()
        self._op = -1

    # -- results ------------------------------------------------------------

    def self_times(self) -> tuple[dict, dict, int]:
        """Calls and self ns per span name, and how many factorizations the
        window predicates asked for directly."""
        n = len(self.span_name)
        child = [0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        calls: dict[str, int] = {}
        self_ns: dict[str, int] = {}
        for i in range(n):
            name = self.names[self.span_name[i]]
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + (self.span_end[i] - self.span_start[i]) - child[i]
        used = 0
        preds = {self._ids[p] for p in WINDOW_PREDICATES if p in self._ids}
        fact = self._ids.get("monoid_core.FactorSession.factorizations")
        for i in range(n):
            p = self.span_parent[i]
            if self.span_name[i] == fact and p >= 0 and self.span_name[p] in preds:
                used += 1
        return calls, self_ns, used

    def metrics(self) -> dict:
        """{metric: (value, unit)}, the per-layer metrics of BENCHMARK.json."""
        calls, self_ns, window_used = self.self_times()
        c = dict(self.counts)
        c.update(calls)
        ex = self.extra

        def n(name):
            return c.get(name, 0)

        def ms(*names):
            return sum(self_ns.get(x, 0) for x in names) / 1e6

        def ratio(a, b):
            return a / b if b else 0.0

        builders = [f"class_groups.{b}" for b in GROUP_BUILDERS]
        out = {
            "quadratic.canonical_associate.calls": n("quadratic.canonical_associate"),
            "quadratic.canonical_associate.self_ms": ms("quadratic.canonical_associate"),
            "quadratic.elem_mul.calls": n("quadratic.QuadElem.__mul__"),
            "quadratic.divide_exact.calls": n("quadratic.divide_exact"),
            "quadratic.elements_of_norm.calls": n("quadratic.elements_of_norm"),
            "quadratic.elements_of_norm.self_ms": ms("quadratic.elements_of_norm"),
            "quadratic.elements_of_norm.b_scanned": ex["b_scanned"],
            "quadratic.elements_of_norm.hit_ratio": ratio(ex["eon_hits"], ex["b_scanned"]),
            "quadratic.fundamental_unit.self_ms": ms("quadratic.fundamental_unit"),
            "class_groups.group_build.calls": sum(
                self._cached[b].cache_info().misses for b in GROUP_BUILDERS),
            "class_groups.group_build.self_ms": ms(*builders),
            "class_groups.ideal_class_options.calls": n("class_groups.ideal_class_options"),
            "class_groups.ideal_class_options.self_ms": ms("class_groups.ideal_class_options"),
            "class_groups.compose.calls": n("class_groups.compose"),
            "class_groups.reduce.calls": n("class_groups.reduce_definite")
                                         + n("class_groups.reduce_indefinite"),
            "normsets.contains.calls": n("normsets.NormsetHandle.contains"),
            "normsets.contains.memo_hit_ratio": ratio(ex["contains_hits"],
                                                      n("normsets.NormsetHandle.contains")),
            "normsets.contains.self_ms": ms("normsets.NormsetHandle.contains"),
            "monoid_core.factorizations.calls": n("monoid_core.FactorSession.factorizations"),
            "monoid_core.factorizations.memo_hit_ratio": ratio(
                ex["facts_hits"], n("monoid_core.FactorSession.factorizations")),
            "monoid_core.is_atom.calls": n("monoid_core.FactorSession.is_atom"),
            "monoid_core.session_spent": ex["session_spent"],
            "monoid_core.window_elements": ex["window_elements"],
            "monoid_core.window_used_ratio": ratio(window_used, ex["window_elements"]),
            "monoid_core.davenport_witness.self_ms": ms("monoid_core.davenport_witness"),
            "hfd_lab.bounded_hfd_check.calls": n("hfd_lab.bounded_hfd_check"),
            "hfd_lab.bounded_hfd_check.self_ms": ms("hfd_lab.bounded_hfd_check"),
            "valnet_sim.monoid_divisors.calls": n("valnet_sim.monoid_divisors"),
            "valnet_sim.monoid_divisors.self_ms": ms("valnet_sim.monoid_divisors"),
            "valnet_sim.contains.calls": n("valnet_sim.NetMonoid.contains"),
            "valnet_sim.net_add.calls": n("valnet_sim.net_add"),
            "valnet_sim.net_leq.calls": n("valnet_sim.net_leq"),
            "arith.factorize.calls": n("arith.factorize"),
            "arith.divisors.calls": n("arith.divisors"),
            "arith.kronecker.calls": n("arith.kronecker"),
        }
        for layer in LAYERS[:-1]:
            out[f"{layer}.self_ms"] = sum(v for k, v in self_ns.items()
                                          if k.startswith(layer + ".")) / 1e6
        return {k: (v, _unit(k)) for k, v in out.items()}

    def write(self, path: str):
        """All spans, gzipped JSON lines: first the span names, then one
        [name index, start ns, end ns, parent span index, operation id] per
        span, in start order.
        """
        rows = zip(self.span_name, self.span_start, self.span_end,
                   self.span_parent, self.span_op)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for row in rows:
                fh.write("[%d,%d,%d,%d,%d]\n" % row)


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def _b_scanned(order, m: int, search_bound) -> int:
    """How many b values elements_of_norm walks for these arguments."""
    d, n = order.d, order.n
    if not order.is_imaginary:
        return 2 * search_bound + 1 if search_bound is not None else 0
    if m <= 0:
        return 0
    num = 4 * m if order.d % 4 == 1 else m
    return 2 * isqrt(num // (-d * n * n)) + 1
