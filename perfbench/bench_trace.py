"""Span tracing from outside the program.

``Tracer.install`` replaces every public function of the traced ulat
modules, and the methods listed in ``METHODS``, with a wrapper that records
one span per call.  A wrapper is bound wherever a caller looks the function
up: in its defining module, in every other ulat module that imported the
name (``annihilation`` binds ``intersect`` and ``sample_lattice`` in its own
namespace), in the ``ulat`` package, and on the class for methods.
``Tracer.uninstall`` puts the original objects back.

Spans stay in memory as parallel arrays (name, start, end, parent, op) and
are aggregated or written out once the traced phase has ended.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import math
import statistics
import sys
import time
from array import array
from typing import Callable

MODULES = ("geometry", "lattice", "mc", "functions", "periodization", "turan", "annihilation")

# Traced methods: (module, class, method, layer name).  The names follow the
# per-layer metric names; the two Periodization methods carry no class part.
METHODS = (
    ("periodization", "Periodization", "support_mask", "periodization.support_mask"),
    ("periodization", "Periodization", "energy", "periodization.energy"),
    ("turan", "TrigPolynomial", "evaluate", "turan.TrigPolynomial.evaluate"),
)

OP_SPAN = "bench.op"

_MARK = "__perfbench_original__"


def _eval_points(args, kwargs, result) -> dict:
    shape = getattr(args[1] if len(args) > 1 else kwargs["t"], "shape", None)
    if shape is None or len(shape) < 2:
        return {"points": 1}
    return {"points": math.prod(shape[:-1])}


def _sweep_counts(args, kwargs, result) -> dict:
    rows = result["rows"]
    return {
        "solved": sum(1 for r in rows if math.isfinite(r["bound"])),
        "attempts": sum(r["attempts"] for r in rows),
    }


# Work counts recorded at the layer boundary: layer name -> counter(args,
# kwargs, result) returning {count name: value}.
COUNTERS: dict[str, Callable] = {
    "periodization.support_mask": lambda a, k, r: {"grid_points": r.size},
    "geometry.cover_measure_upper": lambda a, k, r: {"balls": len(r.balls)},
    "lattice.integer_vectors_in_annulus": lambda a, k, r: {"rows": len(r)},
    "lattice.intersect": lambda a, k, r: {"hits": len(r)},
    "turan.TrigPolynomial.evaluate": _eval_points,
    "annihilation.translated_sweep": _sweep_counts,
}


def _modules() -> dict:
    return {m: importlib.import_module(f"ulat.{m}") for m in MODULES}


def traced_targets() -> list[tuple[object, str, object, str]]:
    """(namespace, attribute, original, layer name) for every binding to wrap."""
    modules = _modules()
    layers: dict[int, str] = {}
    for short, mod in modules.items():
        for attr, obj in vars(mod).items():
            if (
                not attr.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
            ):
                layers[id(obj)] = f"{short}.{attr}"
    targets = []
    for ns in (sys.modules["ulat"], *modules.values()):
        for attr, obj in vars(ns).items():
            if id(obj) in layers:
                targets.append((ns, attr, obj, layers[id(obj)]))
    for short, cls_name, meth, layer in METHODS:
        cls = getattr(modules[short], cls_name)
        targets.append((cls, meth, cls.__dict__[meth], layer))
    return targets


def installed_wrappers() -> list[str]:
    """Names of every traced binding that currently holds a wrapper."""
    found = []
    for ns in (sys.modules["ulat"], *_modules().values()):
        for attr, obj in vars(ns).items():
            if hasattr(obj, _MARK):
                found.append(f"{ns.__name__}.{attr}")
            if inspect.isclass(obj) and obj.__module__ == ns.__name__:
                found += [
                    f"{ns.__name__}.{attr}.{m}" for m, f in vars(obj).items() if hasattr(f, _MARK)
                ]
    return found


class Tracer:
    """In-memory span recorder; one instance per traced phase."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.counts: dict[int, dict] = {}
        self._stack: list[int] = []
        self._op = -1
        self._installed: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def run_op(self, op_id: int, fn: Callable, *args):
        """Run one op under a root ``bench.op`` span."""
        self._op = op_id
        idx = self.open(self.name_id(OP_SPAN))
        try:
            return fn(*args)
        finally:
            self.close(idx)
            self._op = -1

    def _wrap(self, fn: Callable, layer: str) -> Callable:
        nid = self.name_id(layer)
        counter = COUNTERS.get(layer)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if counter is not None:
                tracer.counts[idx] = counter(args, kwargs, result)
            return result

        setattr(wrapper, _MARK, fn)
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer is already installed")
        wrappers: dict[int, Callable] = {}
        for ns, attr, original, layer in traced_targets():
            if id(original) not in wrappers:
                wrappers[id(original)] = self._wrap(original, layer)
            setattr(ns, attr, wrappers[id(original)])
            self._installed.append((ns, attr, original))

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._installed):
            setattr(ns, attr, original)
        self._installed.clear()

    # -- output --------------------------------------------------------------

    def spans(self) -> list[tuple[str, float, float, int, int]]:
        return [
            (self.names[n], s, e, p, o)
            for n, s, e, p, o in zip(self.name, self.start, self.end, self.parent, self.op)
        ]

    def write(self, path) -> None:
        """Write the spans as gzipped tab-separated rows, times in microseconds."""
        with gzip.open(path, "wt") as fh:
            fh.write("index\tname\tstart_us\tend_us\tparent\top\n")
            t0 = self.start[0] if self.start else 0.0
            for i, (n, s, e, p, o) in enumerate(self.spans()):
                fh.write(f"{i}\t{n}\t{(s - t0) * 1e6:.3f}\t{(e - t0) * 1e6:.3f}\t{p}\t{o}\n")


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def self_times(spans) -> list[float]:
    """Self time of every span: its duration minus the part of its interval
    that its direct children cover.

    ``spans`` is a sequence of (name, start, end, parent index, op id).
    Grandchildren are not subtracted again, since a child's duration
    already contains them.
    """
    covered = [0.0] * len(spans)
    reach = [-math.inf] * len(spans)
    for i in sorted(range(len(spans)), key=lambda j: spans[j][1]):
        _, s, e, p, _ = spans[i]
        if p < 0:
            continue
        lo = max(s, spans[p][1], reach[p])
        hi = min(e, spans[p][2])
        if hi > lo:
            covered[p] += hi - lo
        reach[p] = max(reach[p], hi)
    return [e - s - c for (_, s, e, _, _), c in zip(spans, covered)]


def layer_table(tracer: Tracer, n_ops: int) -> dict[str, dict]:
    """Per-layer statistics of the traced ops.

    For each layer: per-op medians of calls, self time (``self_ms``),
    inclusive time (``incl_ms``) and work counts, taken over the ops that
    reach the layer, so that in a workload of mixed op kinds a layer only
    some kinds reach still reads its cost per reaching op; ``ops``, the
    number of those ops out of ``n_ops``; the run totals of each
    (``total_*``); and ``self_share``, the layer's total self time over the
    total op time.  ``lattice.intersect.hit_ratio`` divides the
    indices intersect returned by the candidate rows of its child
    integer_vectors_in_annulus calls, and
    ``annihilation.translated_sweep.attempt_yield`` the y points solved by
    the traces attempted, both over the whole run.
    """
    spans = tracer.spans()
    selfs = self_times(spans)
    per_op: dict[str, dict[str, list[float]]] = {}
    intersect_rows = 0.0
    for i, ((name, start, end, parent, op), self_s) in enumerate(zip(spans, selfs)):
        if op < 0:
            continue
        stats = per_op.setdefault(name, {})
        values = (("calls", 1), ("self_ms", self_s * 1e3), ("incl_ms", (end - start) * 1e3))
        for key, value in (*values, *tracer.counts.get(i, {}).items()):
            if key not in stats:
                stats[key] = [0.0] * n_ops
            stats[key][op] += value
        if (
            name == "lattice.integer_vectors_in_annulus"
            and parent >= 0
            and spans[parent][0] == "lattice.intersect"
        ):
            intersect_rows += tracer.counts[i]["rows"]
    op_total_ms = math.fsum(per_op.get(OP_SPAN, {}).get("incl_ms", []))
    table = {}
    for name, stats in per_op.items():
        reached = [k for k, calls in enumerate(stats["calls"]) if calls]
        row = {k: statistics.median(v[j] for j in reached) for k, v in stats.items()}
        row["ops"] = len(reached)
        row.update({f"total_{k}": math.fsum(v) for k, v in stats.items()})
        row["self_share"] = row["total_self_ms"] / op_total_ms if op_total_ms else 0.0
        table[name] = row
    if "lattice.intersect" in table:
        row = table["lattice.intersect"]
        row["hit_ratio"] = row["total_hits"] / intersect_rows if intersect_rows else 0.0
    if "annihilation.translated_sweep" in table:
        row = table["annihilation.translated_sweep"]
        row["attempt_yield"] = row["total_solved"] / row["total_attempts"] if row["total_attempts"] else 0.0
    return table
