"""Spans around gorsim's public functions, and the per-layer metrics made from them.

The tracer never edits gorsim: it rebinds a public function, in every gorsim
module that holds it, to a wrapper that records (name, start, end, parent)
and, for some functions, a count taken from the return value.  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

# (module, function, counter fed from the return value or None)
TRACED = (
    ("cli", "main", None),
    ("classifier", "search", ("classifier.classes", len)),
    ("classifier", "subadditive_bijections", ("classifier.bijections", len)),
    ("residues", "canonical_form", None),
    ("residues", "from_generators", ("residues.elements", lambda g: g.order)),
    ("residues", "group_of_simplex", None),
    ("delta", "delta_of", None),
    ("delta", "ehrhart_check", None),
    ("simplex", "count_points", ("simplex.points", int)),
    ("exactla", "snf", None),
    ("exactla", "hnf", None),
    ("exactla", "det", None),
    ("catalog", "construct_group", None),
    ("catalog", "construct_simplex", None),
)

# metric name -> (kind, span name); kinds: total, self, calls, count
PER_LAYER = {
    "cli.classify_self_s": ("self", "cli.main"),
    "classifier.search_s": ("total", "classifier.search"),
    "classifier.search_self_s": ("self", "classifier.search"),
    "classifier.dfs_s": ("total", "classifier.subadditive_bijections"),
    "classifier.bijections": ("count", "classifier.bijections"),
    "classifier.classes": ("count", "classifier.classes"),
    "residues.canonical_form_s": ("total", "residues.canonical_form"),
    "residues.canonical_form_calls": ("calls", "residues.canonical_form"),
    "residues.from_generators_s": ("total", "residues.from_generators"),
    "residues.from_generators_calls": ("calls", "residues.from_generators"),
    "residues.elements": ("count", "residues.elements"),
    "residues.group_of_simplex_self_s": ("self", "residues.group_of_simplex"),
    "delta.delta_of_s": ("total", "delta.delta_of"),
    "delta.delta_of_calls": ("calls", "delta.delta_of"),
    "delta.ehrhart_check_self_s": ("self", "delta.ehrhart_check"),
    "simplex.count_points_s": ("total", "simplex.count_points"),
    "simplex.count_points_calls": ("calls", "simplex.count_points"),
    "simplex.points": ("count", "simplex.points"),
    "exactla.snf_s": ("total", "exactla.snf"),
    "exactla.snf_calls": ("calls", "exactla.snf"),
    "exactla.hnf_s": ("total", "exactla.hnf"),
    "exactla.hnf_calls": ("calls", "exactla.hnf"),
    "exactla.det_s": ("total", "exactla.det"),
    "catalog.construct_group_s": ("total", "catalog.construct_group"),
    "catalog.construct_simplex_s": ("total", "catalog.construct_simplex"),
}


class Span:
    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name, start, end, parent):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent

    def as_list(self):
        return [self.name, self.start, self.end, self.parent]


class Tracer:
    """Records spans while installed; uninstall restores every binding."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list = []

    def wrap(self, fn, name, counter):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, clock(), None, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if counter is not None:
                counts[counter[0]] += counter[1](out)
            return out

        return traced

    def install(self):
        homes = {mod: importlib.import_module(f"gorsim.{mod}") for mod, _, _ in TRACED}
        modules = [m for name, m in sys.modules.items()
                   if name == "gorsim" or name.startswith("gorsim.")]
        for mod_name, fn_name, counter in TRACED:
            original = getattr(homes[mod_name], fn_name)
            wrapper = self.wrap(original, f"{mod_name}.{fn_name}", counter)
            for m in modules:
                if getattr(m, fn_name, None) is original:
                    self._saved.append((m, fn_name, original))
                    setattr(m, fn_name, wrapper)

    def uninstall(self):
        for m, fn_name, original in reversed(self._saved):
            setattr(m, fn_name, original)
        self._saved.clear()

    def mark(self):
        return len(self.spans), Counter(self.counts)

    def rollback(self, mark):
        """Forget the spans and counts recorded since mark() returned mark."""
        self.spans[mark[0]:] = []
        self.counts.clear()
        self.counts.update(mark[1])


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for lo, hi in sorted((spans[c].start, spans[c].end) for c in children[i]):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


def totals(spans) -> dict[str, float]:
    """Time per span name, counting a span only if no ancestor has its name."""
    out = defaultdict(float)
    for s in spans:
        p = s.parent
        while p >= 0 and spans[p].name != s.name:
            p = spans[p].parent
        if p < 0:
            out[s.name] += s.end - s.start
    return out


def layer_metrics(spans, counts) -> dict[str, float]:
    """Every PER_LAYER metric, plus classes per bijection, from one span list."""
    total = totals(spans)
    selfs = defaultdict(float)
    calls = Counter()
    for s, t in zip(spans, self_times(spans)):
        selfs[s.name] += t
        calls[s.name] += 1
    pick = {"total": total, "self": selfs, "calls": calls, "count": counts}
    out = {name: pick[kind].get(key, 0) for name, (kind, key) in PER_LAYER.items()}
    bij = counts.get("classifier.bijections", 0)
    out["classifier.classes_per_bijection"] = (
        counts.get("classifier.classes", 0) / bij if bij else 0.0)
    return out


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "classifier.classes_per_bijection":
        return "ratio"
    return "count"
