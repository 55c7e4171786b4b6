"""Spans around logq's public functions, installed from outside the package.

Each wrapper is installed at the name its caller looks up: module attributes
for calls written ``module.func(...)`` or made from inside the defining
module, the importing module's own binding for names pulled in with
``from ... import`` (``indexcalc.rational_to_laurent``, ``cli.dumps``), the
``cli.COMMANDS`` table, and class attributes for methods and the
``from_jsonable`` class methods.  Spans stay in memory (name, start, end,
parent span, job id, counters) and are written out when the run ends.
"""
from __future__ import annotations

import functools
from collections import defaultdict
from math import prod
from time import perf_counter_ns


class Tracer:
    """Installs wrappers, records one span per wrapped call, and restores
    the originals on ``uninstall``."""

    def __init__(self):
        self.spans: list[list] = []
        self.job = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn, counter=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter_ns()
                stack.pop()
            if counter is not None:
                rec[5] = counter(args, kwargs, result)
            return result

        return wrapper

    def run_job(self, job_id: str, fn):
        """Run one job under a root span that carries its id."""
        self.job = job_id
        try:
            return self.wrap("job", fn)()
        finally:
            self.job = None

    def patch(self, owner, attr: str, name: str, counter=None) -> None:
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = self.wrap(name, original, counter)
        else:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(original, classmethod):
                setattr(owner, attr, classmethod(self.wrap(name, original.__func__, counter)))
            else:
                setattr(owner, attr, self.wrap(name, original, counter))
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\tjob\tcounters\n")
            for i, (name, t0, t1, parent, job, counters) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{t0}\t{t1}\t{parent}\t{job}\t{counters or ''}\n")


def _box_volume(args, kwargs, result):
    box = args[1] if len(args) > 1 else kwargs["box"]
    return {"points": len(result), "box_volume": prod(max(0, hi - lo + 1) for lo, hi in box)}


def install(tracer: Tracer) -> None:
    """Wrap the functions whose per-module metrics the benchmark reports."""
    from logq import charring, cli, indexcalc, polyhedra, toricmodel

    p = tracer.patch
    p(polyhedra, "lattice_points", "polyhedra.lattice_points", _box_volume)
    p(polyhedra, "arrangement_cells_with_points", "polyhedra.arrangement_cells",
      lambda a, k, r: {"cells": len(r), "hyperplanes": len(a[0])})
    p(polyhedra, "arrangement_vertex_box", "polyhedra.arrangement_vertex_box")
    p(polyhedra.Polyhedron, "contains", "polyhedra.contains")
    p(polyhedra, "is_empty", "polyhedra.is_empty")
    p(polyhedra, "strongly_convex", "polyhedra.strongly_convex")
    p(polyhedra, "vertices", "polyhedra.vertices")
    p(polyhedra.Polyhedron, "from_jsonable", "polyhedra.from_jsonable")
    p(indexcalc, "qr_check", "indexcalc.qr_check",
      lambda a, k, r: {"table_rows": len(r.per_weight_table), "fixed_terms": len(a[1])})
    p(indexcalc, "reduced_multiplicity", "indexcalc.reduced_multiplicity")
    p(indexcalc, "quantize_lattice", "indexcalc.quantize_lattice",
      lambda a, k, r: {"support": len(r.terms)})
    p(indexcalc, "atiyah_bott", "indexcalc.atiyah_bott")
    p(indexcalc, "fixed_terms_delzant", "indexcalc.fixed_terms_delzant")
    p(indexcalc, "rational_to_laurent", "charring.rational_to_laurent",
      lambda a, k, r: {"quotient_terms": len(r.coeffs)})
    p(charring.Character, "specialize", "charring.specialize")
    p(toricmodel, "validate", "toricmodel.validate")
    p(toricmodel.ToricLogData, "from_jsonable", "toricmodel.from_jsonable")
    p(toricmodel, "signs", "toricmodel.signs")
    p(cli, "main", "cli.main")
    p(cli, "load_config", "cli.load_config")
    for command in list(cli.COMMANDS):
        p(cli.COMMANDS, command, "cli.cmd")
    p(cli, "dumps", "jsonio.dumps", lambda a, k, r: {"bytes": len(r)})


# Per-module metrics: (span name, fields).  ``calls`` and ``self_ms`` are
# per pass; any other field is a counter summed per pass.
METRICS = (
    ("polyhedra.lattice_points", ("calls", "self_ms", "points", "box_volume")),
    ("polyhedra.arrangement_cells", ("calls", "self_ms", "cells", "hyperplanes")),
    ("polyhedra.arrangement_vertex_box", ("self_ms",)),
    ("polyhedra.contains", ("calls", "self_ms")),
    ("polyhedra.is_empty", ("calls", "self_ms")),
    ("polyhedra.strongly_convex", ("self_ms",)),
    ("polyhedra.vertices", ("self_ms",)),
    ("polyhedra.from_jsonable", ("calls", "self_ms")),
    ("indexcalc.qr_check", ("calls", "self_ms", "table_rows")),
    ("indexcalc.reduced_multiplicity", ("calls", "self_ms")),
    ("indexcalc.quantize_lattice", ("calls", "self_ms", "support")),
    ("indexcalc.atiyah_bott", ("self_ms",)),
    ("indexcalc.fixed_terms_delzant", ("self_ms",)),
    ("charring.rational_to_laurent", ("calls", "self_ms", "quotient_terms")),
    ("charring.specialize", ("self_ms",)),
    ("toricmodel.validate", ("calls", "self_ms")),
    ("toricmodel.from_jsonable", ("calls", "self_ms")),
    ("toricmodel.signs", ("calls", "self_ms")),
    ("cli.main", ("calls", "self_ms")),
    ("cli.load_config", ("calls", "self_ms")),
    ("cli.cmd", ("self_ms",)),
    ("jsonio.dumps", ("self_ms", "bytes")),
)


def summarize(spans, passes: int) -> dict[str, tuple[float, str]]:
    """Per-pass per-module metrics as {name: (value, unit)}."""
    child_ns = [0] * len(spans)
    for name, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0
    self_ns = defaultdict(int)
    calls = defaultdict(int)
    counts = defaultdict(int)
    for i, (name, t0, t1, _, _, counters) in enumerate(spans):
        self_ns[name] += t1 - t0 - child_ns[i]
        calls[name] += 1
        for key, value in (counters or {}).items():
            counts[f"{name}.{key}"] += value
    # Points emitted under quantize_lattice, for its cancellation ratio.
    emitted = 0
    for name, _, _, parent, _, counters in spans:
        if name != "polyhedra.lattice_points" or not counters:
            continue
        while parent >= 0 and spans[parent][0] != "indexcalc.quantize_lattice":
            parent = spans[parent][3]
        if parent >= 0:
            emitted += counters["points"]
    out = {}
    for name, fields in METRICS:
        for f in fields:
            if f == "calls":
                out[f"{name}.calls"] = (calls[name] / passes, "count")
            elif f == "self_ms":
                out[f"{name}.self_ms"] = (self_ns[name] / 1e6 / passes, "ms")
            else:
                unit = "bytes" if f == "bytes" else "count"
                out[f"{name}.{f}"] = (counts[f"{name}.{f}"] / passes, unit)
    lp = counts["polyhedra.lattice_points.box_volume"]
    out["polyhedra.lattice_points.hit_ratio"] = (
        counts["polyhedra.lattice_points.points"] / lp if lp else 0.0, "ratio")
    support = counts["indexcalc.quantize_lattice.support"]
    out["indexcalc.quantize_lattice.cancel_ratio"] = (
        support / emitted if emitted else 0.0, "ratio")
    out["indexcalc.fixed_terms.count"] = (counts["indexcalc.qr_check.fixed_terms"] / passes,
                                          "count")
    out["trace.spans"] = (len(spans) / passes, "count")
    return out
