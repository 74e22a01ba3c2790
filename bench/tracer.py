"""Spans around the public functions of each metricdim module.

The benchmark records spans from its own files: ``Tracer.install`` replaces
every reference to a traced function in the loaded ``metricdim`` modules with
a wrapper, so calls between modules (a solver calling ``twin_partition``, the
CLI calling ``dim_exact``) are spanned too.  ``uninstall`` restores the
originals.  Spans stay in memory; ``dump`` writes them once, at exit.

A span is ``[name, start_ns, end_ns, parent_index, query_id]``.  The layer of
a span is its name up to the first dot.  A span's self time is its duration
minus the time its nearest descendants of other layers cover.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

# (module, function, span name)
TARGETS = (
    ("metricdim.families", "generate", "families.generate"),
    ("metricdim.graph", "build_graph", "graph.build"),
    ("metricdim.graph", "all_pairs_distances", "graph.apsp"),
    ("metricdim.graph", "twin_partition", "graph.twin"),
    ("metricdim.solver", "dim_exact", "solver.dim"),
    ("metricdim.solver", "cdim_exact", "solver.cdim"),
    ("metricdim.solver", "cdim_at_set", "solver.cdim_at"),
    ("metricdim.solver", "vertex_profile", "solver.profile"),
    ("metricdim.solver", "enumerate_min_resolving_sets", "solver.enum"),
    ("metricdim.minor", "has_minor", "minor.has_minor"),
    ("metricdim.minor", "is_planar_desk", "minor.planar"),
    ("metricdim.formulas", "recognize", "formulas.recognize"),
    ("metricdim.formulas", "dim_formula", "formulas.eval"),
    ("metricdim.formulas", "cdim_formula", "formulas.eval"),
    ("metricdim.formulas", "cdim_at_vertex_formula", "formulas.eval"),
    ("metricdim.formulas", "tree_min_resolving_sets", "formulas.tree_sets"),
    ("metricdim.cli", "parse_graph_file", "cli.parse"),
    ("metricdim.cli", "run", "cli.run"),
)


def _count_found(counts: Counter, result) -> None:
    if result[0]:
        counts["minor.found"] += 1


def _count_recognized(counts: Counter, result) -> None:
    counts["formulas.recognize_calls"] += 1
    if result is not None:
        counts["formulas.recognized"] += 1


HOOKS = {"minor.has_minor": _count_found, "formulas.recognize": _count_recognized}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.qid = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        hook = HOOKS.get(name)

        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, self.qid]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self.counts, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._patched:
            return
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "metricdim" or name.startswith("metricdim."))]
        for module_name, func_name, span_name in TARGETS:
            owner = sys.modules.get(module_name)
            if owner is None:
                continue
            original = getattr(owner, func_name)
            wrapper = self._wrap(span_name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def mark(self) -> int:
        """Index of the next span, to delimit a phase."""
        return len(self.spans)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "query"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)


def layer(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(spans: list[list], lo: int, hi: int) -> dict:
    """Per-name totals over spans[lo:hi].

    Returns ``{name: {"count", "total_ns", "self_ns", "durations"}}`` where
    ``self_ns`` sums the self time of spans that are outermost in their layer.
    """
    foreign = [0] * (hi - lo)
    for i in range(hi - 1, lo - 1, -1):
        name, start, end, parent, _ = spans[i]
        if parent >= lo:
            if layer(name) != layer(spans[parent][0]):
                foreign[parent - lo] += end - start
            else:
                foreign[parent - lo] += foreign[i - lo]
    out: dict[str, dict] = {}
    for i in range(lo, hi):
        name, start, end, parent, _ = spans[i]
        entry = out.setdefault(name, {"count": 0, "total_ns": 0, "self_ns": 0, "durations": []})
        entry["count"] += 1
        entry["total_ns"] += end - start
        entry["durations"].append(end - start)
        outermost = parent < lo or layer(spans[parent][0]) != layer(name)
        if outermost:
            entry["self_ns"] += end - start - foreign[i - lo]
    return out
