"""Outside-in tracing of crjet for the per-layer metrics.

``Tracer.install`` replaces crjet's public functions and a few hot methods
with wrappers, from here and not from inside the library.  It also rebinds
every module-level alias that points at a wrapped function (for example the
``compose`` that ``equivalence``, ``hypersurface`` and ``faadibruno`` import
from ``series``), so calls through those names are counted too.

Functions in ``SPANS`` record a span (name, start, end, parent, job id) kept
in memory; self time is derived from the spans afterwards.  Every other
public function, and ExactComplex/NPoly arithmetic, only counts calls, which
keeps the tracing overhead tolerable.  Exceptions leaving a wrapped call are
counted once per module and exception.
"""

from __future__ import annotations

import importlib
import inspect
import time

MODULES = ("scalars", "series", "linalg", "faadibruno", "hypersurface",
           "upsilon", "equivalence", "io", "cli")

# functions that get spans; everything else public only counts calls
SPANS = {
    "scalars": ("integer_roots",),
    "series": ("compose", "implicit_solve", "divide", "inverse_unit", "kth_root_unit"),
    "linalg": ("solve_rational",),
    "faadibruno": ("universal_pn",),
    "hypersurface": ("validate",),
    "upsilon": ("build_upsilon", "xi_determinants", "dim_Vn", "compute_D"),
    "equivalence": ("reconstruct", "f0_from_jet", "shat_jet_table", "verify_map",
                    "finite_determination_check"),
    "io": ("load_json", "dump_json", "parse_hypersurface", "parse_series",
           "parse_formal_map", "parse_jet_data"),
    "cli": ("main",),
}
# (module, class, method names, metric name, span?)
METHODS = (
    ("scalars", "ExactComplex", ("__mul__", "__rmul__"), "scalars.ec_mul", False),
    ("scalars", "ExactComplex", ("__add__", "__radd__"), "scalars.ec_add", False),
    ("scalars", "NPoly", ("__mul__", "__rmul__"), "scalars.npoly_mul", False),
    ("series", "TruncatedSeries", ("__mul__", "__rmul__"), "series.mul", True),
    ("series", "TruncatedSeries", ("__pow__",), "series.pow", True),
    ("linalg", "RankTracker", ("add_row",), "linalg.rank_add_row", True),
)
PARSE_SPANS = ("io.parse_hypersurface", "io.parse_series", "io.parse_formal_map",
               "io.parse_jet_data")


def _mul_pairs(tracer, args, result):
    a, b = args[0], args[1]
    if hasattr(b, "coeffs"):
        tracer.sums["series.mul.pairs"] += len(a.coeffs) * len(b.coeffs)


def _solve_rows(tracer, args, result):
    tracer.sums["linalg.solve_rational.rows"] += len(args[0])


def _dump_bytes(tracer, args, result):
    tracer.sums["io.dump_json.bytes"] += len(result.encode("utf-8"))


def _rank_scans(tracer, args, result):
    tracer.sums["upsilon.candidates"] += len(result.vn_dims)
    tracer.sums["upsilon.in_D"] += len(result.D)


EXTRA = {"series.mul": _mul_pairs, "linalg.solve_rational": _solve_rows,
         "io.dump_json": _dump_bytes, "upsilon.compute_D": _rank_scans}


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []          # [name id, start, end, parent index, job, nested]
        self.calls = {}
        self.sums = {k: 0 for k in ("series.mul.pairs", "linalg.solve_rational.rows",
                                    "io.dump_json.bytes", "upsilon.candidates",
                                    "upsilon.in_D")}
        self.errors = {m: 0 for m in MODULES}
        self.job = None
        self._stack = []
        self._depth = []
        self._seen = {}          # id(exc) -> (exc, modules it left)
        self._restore = []

    # -- bookkeeping -------------------------------------------------------------
    def start_job(self, job_id):
        self.job = job_id
        self._seen.clear()

    def _error(self, module, exc):
        exc_entry = self._seen.setdefault(id(exc), (exc, set()))
        if module not in exc_entry[1]:
            exc_entry[1].add(module)
            self.errors[module] += 1

    # -- wrappers ----------------------------------------------------------------
    def _counter(self, name, module, fn):
        calls = self.calls
        calls.setdefault(name, 0)
        tracer = self

        def wrapper(*args, **kwargs):
            calls[name] += 1
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                tracer._error(module, exc)
                raise
        return wrapper

    def _span(self, name, module, fn):
        nid = len(self.names)
        self.names.append(name)
        self._depth.append(0)
        spans, stack, depth = self.spans, self._stack, self._depth
        extra = EXTRA.get(name)
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            record = [nid, 0.0, 0.0, stack[-1] if stack else -1, tracer.job,
                      depth[nid] > 0]
            spans.append(record)
            stack.append(idx)
            depth[nid] += 1
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._error(module, exc)
                raise
            finally:
                record[2] = clock()
                stack.pop()
                depth[nid] -= 1
            if extra is not None:
                extra(tracer, args, result)
            return result
        return wrapper

    # -- installation ------------------------------------------------------------
    def install(self):
        mods = {m: importlib.import_module(f"crjet.{m}") for m in MODULES}
        namespaces = list(mods.values()) + [importlib.import_module("crjet")]
        replaced = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                make = self._span if attr in SPANS[short] else self._counter
                replaced[id(obj)] = (obj, make(name, short, obj))
        # rebind the function everywhere it is held: its module, the package
        # namespace and every module that imported it by name
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((ns, attr, obj))
                    setattr(ns, attr, hit[1])
        for short, cls_name, methods, name, span in METHODS:
            cls = getattr(mods[short], cls_name)
            original = vars(cls)[methods[0]]
            wrapped = (self._span if span else self._counter)(name, short, original)
            for meth in methods:
                self._restore.append((cls, meth, vars(cls)[meth]))
                setattr(cls, meth, wrapped)

    def uninstall(self):
        while self._restore:
            owner, attr, obj = self._restore.pop()
            setattr(owner, attr, obj)

    # -- derived metrics -----------------------------------------------------------
    def summary(self):
        """Per span name: calls, inclusive seconds (outermost calls only),
        self seconds and the longest call; plus the call counters."""
        spans = self.spans
        child = [0.0] * len(spans)
        for nid, start, end, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (nid, start, end, _, _, nested) in enumerate(spans):
            d = out.setdefault(self.names[nid], {"calls": 0, "s": 0.0, "self_s": 0.0,
                                                 "max_s": 0.0})
            dur = end - start
            d["calls"] += 1
            d["self_s"] += dur - child[i]
            if not nested:
                d["s"] += dur
            if dur > d["max_s"]:
                d["max_s"] = dur
        for name, n in self.calls.items():
            out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "max_s": 0.0})
            out[name]["calls"] = n
        return out

    def metrics(self):
        """Flat metric name -> value, for every name in PER_LAYER."""
        summ = self.summary()

        def get(name, key):
            return summ.get(name, {}).get(key, 0)

        values = dict(self.sums)
        for name, d in summ.items():
            for key, v in d.items():
                values[f"{name}.{key}"] = v
        values["io.parse.s"] = sum(get(n, "self_s") for n in PARSE_SPANS)
        for module, n in self.errors.items():
            values[f"{module}.errors"] = n
        return values

    def dump(self):
        return {"names": self.names,
                "fields": ["name", "start", "end", "parent", "job", "nested"],
                "spans": self.spans}
