"""Wrapper-based tracing of the `hciz` layers, installed from outside the package.

`Tracer.install()` replaces every public function of the traced modules,
and a few named methods, with a wrapper that records a span: name, start,
end, parent span and operation id.  Modules import functions by name
(`from .symfn import partitions_of_weight`), so a function is replaced in
every `hciz` module that holds it, which is where its callers look it up.
Spans stay in memory, in flat arrays, until the run ends; `uninstall()`
restores the originals.

Some wrappers also keep a note per call (the arguments or result sizes a
per-layer metric needs), and the scalar operators are counted without
spans because they run millions of times.
"""

from __future__ import annotations

import importlib
import math
import statistics
import sys
import time
from array import array

from workloads import SUITES

TRACED_MODULES = ("numeric", "symfn", "exactpoly", "scalars", "invariant", "suites", "cli")
SPAN_METHODS = (
    ("exactpoly", "ExactPoly", "__mul__"),
    ("exactpoly", "ExactPoly", "apply_diff"),
    ("exactpoly", "ExactPoly", "substitute"),
)
COUNT_METHODS = (
    ("scalars", "GaussianRational", "__mul__"),
    ("scalars", "GaussianRational", "__add__"),
)
# generator functions: consumed inside the span so it covers the enumeration
EAGER = {"symfn.partitions_of_weight"}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _dim(spectrum) -> int:
    # a tuple of eigenvalues, or the package's Spectrum (which the CLI passes)
    return spectrum.n if hasattr(spectrum, "n") else len(spectrum)


def _mc_note(args, kwargs, result):
    rse = result.stderr / abs(result.mean) if result.mean else math.inf
    return {"n": _dim(_arg(args, kwargs, 0, "a")), "samples": result.n_samples, "rse": rse}


def _series_note(args, kwargs, result):
    max_weight = args[2] if len(args) > 2 else kwargs.get("max_weight", 24)
    return {"n": _dim(_arg(args, kwargs, 0, "x")), "used": result.max_weight_used,
            "max_weight": max_weight}


def _samples_note(pos, name, draws):
    def note(args, kwargs, result):
        return {"samples": draws * _arg(args, kwargs, pos, name)}

    return note


def _distinct_note(args, kwargs, result):
    # distinct operands are told apart by hash, which equal polynomials share
    return {"key": hash((args[0], args[1]))}


def _suite_note(args, kwargs, result):
    return {"suite": result.suite, "cases": len(result.cases)}


NOTES = {
    "numeric.hciz_mc": _mc_note,
    "numeric.kernel_series": _series_note,
    # two MC means (trace and determinant) per call
    "numeric.ginibre_moment_suite": _samples_note(1, "n_samples", 2),
    "suites.suite_haar": lambda args, kwargs, result: (
        _suite_note(args, kwargs, result) | _samples_note(1, "n_samples", 1)(args, kwargs, result)
    ),
    "symfn.partitions_of_weight": lambda args, kwargs, result: {"size": len(result)},
    "exactpoly.ExactPoly.__mul__": lambda args, kwargs, result: {
        "pairs": len(args[0].terms) * (len(args[1].terms) if hasattr(args[1], "terms") else 1)
    },
    "invariant.expand_to_entries": _distinct_note,
    "invariant.restrict_to_diagonal": _distinct_note,
}


class Tracer:
    """Span recorder; one per traced segment of a run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.notes: dict[int, dict] = {}
        self.counts: dict[str, int] = {}
        # operation id -> the speed factor its times are scaled by (run.py)
        self.op_scale: dict[int, float] = {}
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list = []

    # -- recording -------------------------------------------------------------

    def _intern(self, name: str) -> int:
        got = self._ids.get(name)
        if got is None:
            got = self._ids[name] = len(self.names)
            self.names.append(name)
        return got

    def _span(self, name: str, fn):
        nid = self._intern(name)
        note = NOTES.get(name) or (_suite_note if name.startswith("suites.suite_") else None)
        eager = name in EAGER
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
                if eager:
                    result = list(result)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if note is not None:
                self.notes[idx] = note(args, kwargs, result)
            return iter(result) if eager else result

        traced.__wrapped__ = fn
        return traced

    def _counter(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation ------------------------------------------------------------

    def install(self):
        """Wrap every public function and the named methods of the traced modules."""
        import hciz

        mods = {m: importlib.import_module(f"hciz.{m}") for m in TRACED_MODULES}
        replace = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or isinstance(obj, type)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__
                ):
                    continue
                replace[id(obj)] = (obj, self._span(f"{short}.{attr}", obj))
        holders = [hciz] + [m for name, m in sys.modules.items() if name.startswith("hciz.")]
        for holder in holders:
            for attr, obj in list(vars(holder).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((holder, attr, obj))
                    setattr(holder, attr, hit[1])
        for short, cls_name, meth in SPAN_METHODS + COUNT_METHODS:
            cls = getattr(mods[short], cls_name)
            orig = cls.__dict__[meth]
            name = f"{short}.{cls_name}.{meth}"
            wrap = self._counter if (short, cls_name, meth) in COUNT_METHODS else self._span
            self._patches.append((cls, meth, orig))
            setattr(cls, meth, wrap(name, orig))
        return self

    def uninstall(self):
        for holder, attr, orig in reversed(self._patches):
            setattr(holder, attr, orig)
        self._patches.clear()

    # -- export and merge -------------------------------------------------------------

    def export(self) -> dict:
        """Plain-data copy of the spans, for a traced child process to hand back."""
        return {
            "names": self.names,
            "name_id": self.name_id.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "op": self.op.tolist(),
            "notes": {str(k): v for k, v in self.notes.items()},
            "counts": self.counts,
        }

    def merge(self, data: dict):
        """Append spans exported by another tracer (a traced child process)."""
        base = len(self.start)
        remap = [self._intern(n) for n in data["names"]]
        self.name_id.extend(remap[i] for i in data["name_id"])
        self.start.extend(data["start"])
        self.end.extend(data["end"])
        self.parent.extend(p + base if p >= 0 else -1 for p in data["parent"])
        self.op.extend(data["op"])
        for k, v in data["notes"].items():
            self.notes[int(k) + base] = v
        for k, v in data["counts"].items():
            self.counts[k] = self.counts.get(k, 0) + v


# -- per-layer metrics ------------------------------------------------------------------


class SpanTable:
    """Per-span durations, self times and ancestry, computed once from a Tracer."""

    def __init__(self, tr: Tracer):
        n = len(tr.start)
        self.tr = tr
        scale = tr.op_scale
        self.dur = [(tr.end[i] - tr.start[i]) * scale.get(tr.op[i], 1.0) for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = tr.parent[i]
            if p >= 0:
                child[p] += self.dur[i]
        self.self_time = [self.dur[i] - child[i] for i in range(n)]
        series = tr._ids.get("numeric.kernel_series", -2)
        # spans open in call order, so a parent's index precedes its children's
        self.in_series = [False] * n
        for i in range(n):
            p = tr.parent[i]
            if p >= 0:
                self.in_series[i] = self.in_series[p] or tr.name_id[p] == series
        self.by_name: dict[str, list[int]] = {}
        for i in range(n):
            self.by_name.setdefault(tr.names[tr.name_id[i]], []).append(i)

    def spans(self, name):
        return self.by_name.get(name, [])

    def self_by_layer(self) -> dict:
        """Self seconds of each traced module (the first part of a span's name)."""
        out: dict[str, float] = {}
        for i, secs in enumerate(self.self_time):
            layer = self.tr.names[self.tr.name_id[i]].split(".")[0]
            out[layer] = out.get(layer, 0.0) + secs
        return out

    def calls(self, name):
        return len(self.spans(name))

    def self_s(self, name):
        return sum(self.self_time[i] for i in self.spans(name))

    def total_s(self, name):
        return sum(self.dur[i] for i in self.spans(name))

    def note(self, i):
        return self.tr.notes.get(i, {})


def _median(values):
    return statistics.median(values) if values else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


SYMFN_PLAN = ("symfn.partitions_of_weight", "symfn.jacobi_trudi_indices", "symfn.vector_factorial")


def layer_metrics(tr: Tracer, passes: int, t: SpanTable | None = None) -> dict:
    """Per-layer metrics as {name: (value, unit)}.

    Counts and self times are per traced pass, so runs with different pass
    counts compare; a rate or ratio over zero calls reads 0, which marks a
    layer the workload leaves idle.
    """
    t = t or SpanTable(tr)
    per = 1.0 / max(passes, 1)
    out = {}

    mc = t.spans("numeric.hciz_mc")
    for n in (2, 3, 4, 8):
        vals = [t.dur[i] / t.note(i)["samples"] * 1e9 for i in mc if t.note(i)["n"] == n]
        out[f"numeric.hciz_mc.ns_per_sample.n{n}"] = (_median(vals), "ns")
    for name in ("numeric.ginibre_moment_suite", "suites.suite_haar"):
        vals = [t.dur[i] / t.note(i)["samples"] * 1e9 for i in t.spans(name)]
        out[f"{name}.ns_per_sample"] = (_median(vals), "ns")
    out["numeric.hciz_mc.rse_sqrt_n"] = (
        _median([t.note(i)["rse"] * math.sqrt(t.note(i)["samples"]) for i in mc]), "ratio")

    det = t.spans("numeric.hciz_determinant")
    out["numeric.hciz_determinant.us_per_call"] = (_median([t.dur[i] * 1e6 for i in det]), "us")
    series = t.spans("numeric.kernel_series")
    for n in (2, 3, 4, 6):
        vals = [t.dur[i] * 1e3 for i in series if t.note(i)["n"] == n]
        out[f"numeric.kernel_series.ms_per_call.n{n}"] = (_median(vals), "ms")
    shells = [t.note(i)["used"] + 1 for i in series]
    out["numeric.kernel_series.shells_per_call"] = (_ratio(sum(shells), len(series)), "count")
    early = sum(t.note(i)["used"] < t.note(i)["max_weight"] for i in series)
    out["numeric.kernel_series.early_stop_ratio"] = (_ratio(early, len(series)), "ratio")

    for name in ("symfn.partitions_of_weight", "symfn.jacobi_trudi_indices",
                 "symfn.vector_factorial", "symfn.homogeneous_values"):
        out[f"{name}.calls"] = (t.calls(name) * per, "count")
        out[f"{name}.self_ms"] = (t.self_s(name) * 1e3 * per, "ms")
    plan_s = sum(t.self_time[i] for name in SYMFN_PLAN for i in t.spans(name) if t.in_series[i])
    out["numeric.kernel_series.plan_share"] = (
        _ratio(plan_s, t.total_s("numeric.kernel_series")), "ratio")
    jt = sum(t.in_series[i] for i in t.spans("symfn.jacobi_trudi_indices"))
    parts = sum(t.note(i)["size"] for i in t.spans("symfn.partitions_of_weight") if t.in_series[i])
    out["numeric.kernel_series.plan_builds_per_shell"] = (_ratio(jt, parts), "ratio")

    mul = "exactpoly.ExactPoly.__mul__"
    out[f"{mul}.calls"] = (t.calls(mul) * per, "count")
    out[f"{mul}.term_pairs"] = (sum(t.note(i)["pairs"] for i in t.spans(mul)) * per, "count")
    out[f"{mul}.self_s"] = (t.self_s(mul) * per, "s")
    out["exactpoly.bargmann_inner.calls"] = (t.calls("exactpoly.bargmann_inner") * per, "count")
    out["exactpoly.bargmann_inner.self_s"] = (t.self_s("exactpoly.bargmann_inner") * per, "s")
    for meth in ("apply_diff", "substitute"):
        name = f"exactpoly.ExactPoly.{meth}"
        out[f"{name}.self_s"] = (t.self_s(name) * per, "s")

    for meth in ("__mul__", "__add__"):
        name = f"scalars.GaussianRational.{meth}"
        out[f"{name}.calls"] = (tr.counts.get(name, 0) * per, "count")

    for name in ("invariant.expand_to_entries", "invariant.restrict_to_diagonal"):
        idx = t.spans(name)
        distinct = len({t.note(i)["key"] for i in idx})
        out[f"{name}.calls"] = (len(idx) * per, "count")
        out[f"{name}.distinct_ratio"] = (_ratio(distinct, len(idx)), "ratio")
        out[f"{name}.self_s"] = (t.self_s(name) * per, "s")
    for name in ("invariant.verify_unitarity", "invariant.verify_diffop_identity",
                 "invariant.verify_fourier_reconstruction"):
        out[f"{name}.ms_per_case"] = (_ratio(t.total_s(name) * 1e3, t.calls(name)), "ms")

    cases: dict[str, list] = {s: [0, 0.0] for s in SUITES}
    for i, note in tr.notes.items():
        if note.get("suite") in cases:
            acc = cases[note["suite"]]
            acc[0] += note["cases"]
            acc[1] += t.dur[i]
    for suite, (count, secs) in cases.items():
        out[f"suites.{suite}.cases_per_s"] = (_ratio(count, secs), "1/s")
    return out
