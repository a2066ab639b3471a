"""Spans around nislie's public functions, recorded from outside the library.

`Tracer.install` replaces each traced function by a wrapper on its defining
module, on every other nislie module that imported it under any name, and,
for methods, on the class.  `uninstall` puts the originals back, so a run
can alternate traced and untraced passes.

A span records name, start, end and parent span; spans stay in memory until
the run ends.  Very hot inner calls get a bare call counter instead.
"""

from __future__ import annotations

import importlib
import os
import statistics
import sys
import time
from collections import defaultdict


def _kernel_measure(args, result):
    m = args[0]
    return {"rows": m.nrows, "width": m.ncols, "kernel_dim": len(result)}


def _validate_measure(args, result):
    n = args[0].dim
    return {"triples": n * (n - 1) * (n - 2) // 6}


def _check_nis_measure(args, result):
    return {"triples": args[0].dim ** 3}


def _search_measure(args, result):
    return {"nodes": result.nodes, "decided": int(result.status != "budget-exhausted")}


def _group_measure(args, result):
    return {"size": len(result)}


def _file_bytes(path):
    return {"bytes": os.path.getsize(path)}


# (module, attribute or Class.method, metric prefix, measure, reported extras)
SPANNED = (
    ("nislie.gf2", "GF2Matrix.kernel_basis", "gf2.kernel_basis", _kernel_measure,
     ("rows", "width", "kernel_dim")),
    ("nislie.gf2", "quotient_basis", "gf2.quotient_basis", None, ()),
    ("nislie.gf2", "solve_affine", "gf2.solve_affine", None, ()),
    ("nislie.derivations", "outer_dimension_by_degree",
     "derivations.outer_dimension_by_degree", None, ()),
    ("nislie.derivations", "outer_derivations", "derivations.outer_derivations", None, ()),
    ("nislie.superalgebra", "validate", "superalgebra.validate", _validate_measure, ()),
    ("nislie.forms", "check_nis", "forms.check_nis", _check_nis_measure, ()),
    ("nislie.isometry", "search_isometry", "isometry.search_isometry", _search_measure,
     ("nodes",)),
    ("nislie.isometry", "adapted_isometry_decision",
     "isometry.adapted_isometry_decision", None, ()),
    ("nislie.isometry", "isometry_group", "isometry.isometry_group", _group_measure,
     ("size",)),
    ("nislie.isometry", "verify_isometry", "isometry.verify_isometry", None, ()),
    ("nislie.extension", "extend", "extension.extend", None, ()),
    ("nislie.extension", "reduce", "extension.reduce", None, ()),
    ("nislie.document", "load", "document.load", lambda a, r: _file_bytes(a[0]), ("bytes",)),
    ("nislie.document", "save", "document.save", lambda a, r: _file_bytes(a[1]), ("bytes",)),
    ("nislie.cli", "main", "cli.main", None, ()),
    ("nislie.catalog", "named", "catalog.named", None, ()),
    ("nislie.catalog", "hamiltonian", "catalog.hamiltonian", None, ()),
)

# called hundreds of thousands of times per pass: a counter, no span
COUNTED = (("nislie.gf2", "SpanBasis.add", "gf2.SpanBasis.add"),)

# (metric, measured work, span) -> work per second of the span's whole duration
RATES = (
    ("superalgebra.validate.triples_per_s", "triples", "superalgebra.validate"),
    ("forms.check_nis.triples_per_s", "triples", "forms.check_nis"),
    ("isometry.search_isometry.nodes_per_s", "nodes", "isometry.search_isometry"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, phase, extras]
        self._cells: list[tuple[str, str, list[int]]] = []
        self.phase = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced name; counters count for the current phase."""
        importlib.import_module("nislie.cli")  # loads every nislie module
        for module, attr, name, measure, _ in SPANNED:
            self._patch(module, attr, lambda fn, n=name, m=measure: self._span(n, fn, m))
        for module, attr, name in COUNTED:
            self._patch(module, attr, lambda fn, n=name: self._counter(n, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, module_name, attr, make_wrapper):
        module = sys.modules[module_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            self._patches.append((cls, meth, original))
            setattr(cls, meth, make_wrapper(original))
            return
        original = getattr(module, attr)
        wrapper = make_wrapper(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "nislie" or mod_name.startswith("nislie.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def _span(self, name, fn, measure):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.phase, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if measure is not None:
                span[5] = measure(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name, fn):
        cell = [0]  # this installation's count, kept apart for speed
        self._cells.append((name, self.phase, cell))

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- analysis -----------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, dict[str, float]]]:
        """name -> phase -> {calls, self_s, incl_s, extras...}."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, phase, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = defaultdict(lambda: defaultdict(lambda: defaultdict(float)))
        for idx, (name, start, end, parent, phase, extras) in enumerate(self.spans):
            acc = out[name][phase]
            acc["calls"] += 1
            acc["incl_s"] += end - start
            acc["self_s"] += end - start - child_time[idx]
            for key, value in (extras or {}).items():
                acc[key] += value
        for name, phase, cell in self._cells:
            out[name][phase]["calls"] += cell[0]
        return out


def per_layer_metrics(tracer: Tracer, pass_phases: list[str]) -> dict[str, dict]:
    """Set-up phase plus the median traced pass, for every listed layer metric.

    Counts repeat exactly from pass to pass, so their median is the count of
    any one pass.
    """
    totals = tracer.layer_totals()
    metrics: dict[str, dict] = {}

    def value(name, key):
        phases = totals.get(name, {})
        setup = phases.get("setup", {}).get(key, 0.0)
        per_pass = [phases.get(p, {}).get(key, 0.0) for p in pass_phases]
        return setup + (statistics.median(per_pass) if per_pass else 0.0)

    for _, _, name, _, extras in SPANNED:
        metrics[f"{name}.calls"] = {"value": int(value(name, "calls")), "unit": "count"}
        metrics[f"{name}.self_s"] = {"value": value(name, "self_s"), "unit": "s"}
        for extra in extras:
            unit = "B" if extra == "bytes" else "count"
            metrics[f"{name}.{extra}"] = {"value": int(value(name, extra)), "unit": unit}
    for _, _, name in COUNTED:
        metrics[f"{name}.calls"] = {"value": int(value(name, "calls")), "unit": "count"}
    for metric, work, name in RATES:
        incl = value(name, "incl_s")
        metrics[metric] = {"value": value(name, work) / incl if incl else 0.0, "unit": "1/s"}
    calls = value("isometry.search_isometry", "calls")
    decided = value("isometry.search_isometry", "decided")
    metrics["isometry.search_isometry.decided_ratio"] = {
        "value": decided / calls if calls else 0.0,
        "unit": "ratio",
    }
    return metrics
