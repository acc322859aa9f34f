"""Span recording around the program's public functions, and layer sums.

The modules of exptrig import each other's functions by name, so a call
from formulas into series goes through the binding in formulas, not the
one in series. ``Tracer.install`` therefore replaces every binding of a
traced function in every loaded exptrig module with one wrapper. Each
call records a span (layer, start, end, parent, count) in memory; the
spans are written out once, when the traced process ends. Nothing in the
program is changed on disk.

``layer_metrics`` turns a span file into per-layer figures. A layer's
self time is the time of its spans not covered by their child spans.
``calls`` counts entries into a layer from outside it, so a formulas
route that calls another function of the same route counts once, and
``us_per_call`` is the inclusive time per entry.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from functools import wraps

# Traced functions by module, with the layer each belongs to. The
# series and quadrature layers also record a count from their result.
LAYERS = {
    "series": {"hyp0f1": "series.hyp0f1", "bessel_i": "series.bessel_i"},
    "complexops": {
        "cpow_half": "complexops.cpow_half",
        "pow_int_over_factorial": "complexops.pow_int_over_factorial",
        "principal_arg": "complexops.principal_arg",
    },
    "formulas": {
        "eval_f_bessel": "formulas.original",
        "eval_original_sin": "formulas.original",
        "eval_original_cos": "formulas.original",
        "eval_corrected_original_sin": "formulas.corrected",
        "eval_corrected_original_cos": "formulas.corrected",
        "eval_f_hyp": "formulas.improved",
        "eval_improved_sin": "formulas.improved",
        "eval_improved_cos": "formulas.improved",
        "eval_complex_sin": "formulas.complex",
        "eval_complex_cos": "formulas.complex",
    },
    "conditions": {
        "build_report": "conditions.build_report",
        "overall_sign_error": "conditions.overall_sign_error",
    },
    "quadrature": {
        "oracle_f": "quadrature.oracle",
        "oracle_sin": "quadrature.oracle",
        "oracle_cos": "quadrature.oracle",
    },
    "catalog": {"check_entry": "catalog.check_entry"},
}
LAYER_NAMES = tuple(dict.fromkeys(
    layer for funcs in LAYERS.values() for layer in funcs.values()))
COUNTED = {"series.hyp0f1": "terms_used", "series.bessel_i": "terms_used",
           "quadrature.oracle": "evaluations"}
# Root spans: the CLI entry point, or the benchmark's own library loop.
ROOTS = ("cli", "library")
NAMES = ROOTS + LAYER_NAMES


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.layer = array("b")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.count = array("q")
        self._stack = [-1]

    def span(self, name: str, fn, count_attr: str | None = None):
        """Wrap fn so that each call records one span under ``name``."""
        code = NAMES.index(name)
        clock = time.perf_counter_ns
        stack = self._stack
        layer, start, end, parent, count = self.layer, self.start, self.end, self.parent, self.count

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = len(layer)
            layer.append(code)
            parent.append(stack[-1])
            start.append(clock())
            end.append(0)
            count.append(0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if count_attr is not None:
                count[idx] = getattr(result, count_attr)
            return result

        return traced

    def install(self) -> None:
        """Replace every binding of every traced function in loaded exptrig modules."""
        wrappers = {}
        for mod_name, funcs in LAYERS.items():
            module = sys.modules[f"exptrig.{mod_name}"]
            for fname, layer_name in funcs.items():
                original = getattr(module, fname)
                wrappers[id(original)] = (original,
                                          self.span(layer_name, original, COUNTED.get(layer_name)))
        for name, module in list(sys.modules.items()):
            if name != "exptrig" and not name.startswith("exptrig."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def dump(self, path: str) -> None:
        """Write the spans: a JSON header line, then the five columns as raw arrays."""
        with open(path, "wb") as fh:
            header = {"names": NAMES, "spans": len(self.layer),
                      "columns": [("layer", "b"), ("start", "q"), ("end", "q"),
                                  ("parent", "l"), ("count", "q")]}
            fh.write(json.dumps(header).encode() + b"\n")
            for col in (self.layer, self.start, self.end, self.parent, self.count):
                col.tofile(fh)


def load_spans(path: str) -> tuple[list[str], dict[str, array]]:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        cols = {}
        for name, code in header["columns"]:
            col = array(code)
            col.fromfile(fh, header["spans"])
            cols[name] = col
    return header["names"], cols


def layer_sums(paths: list[str]) -> dict[str, dict[str, float]]:
    """Per-name totals over span files: calls, self_ns, incl_ns, count, spans."""
    sums = {name: {"calls": 0, "self_ns": 0, "incl_ns": 0, "count": 0, "spans": 0}
            for name in NAMES}
    for path in paths:
        names, cols = load_spans(path)
        layer, start, end, parent, count = (cols[k] for k in ("layer", "start", "end", "parent", "count"))
        child_ns = [0] * len(layer)
        for i in range(len(layer)):
            dur = end[i] - start[i]
            par = parent[i]
            if par >= 0:
                child_ns[par] += dur
        for i in range(len(layer)):
            s = sums[names[layer[i]]]
            dur = end[i] - start[i]
            s["self_ns"] += dur - child_ns[i]
            s["spans"] += 1
            s["count"] += count[i]
            par = parent[i]
            if par < 0 or layer[par] != layer[i]:
                s["calls"] += 1
                s["incl_ns"] += dur
    return sums
