"""Spans and counters around k3corr's functions, and the per-layer metrics.

The tracer lives in the benchmark, not in the package: ``Tracer.install``
rebinds each traced function in every k3corr module that binds it (the
package namespace included, since ``weights``, ``correspondence`` and
``polytope`` each import ``hull`` by name) and re-wraps the cached
properties ``Polytope3.lattice_points`` and ``Polytope3.face_counts``.
A span is ``[name, start_ns, end_ns, parent_index, attrs]``; spans stay in
memory until ``dump``.  Functions too hot to span are only counted, keyed by
the innermost open span.  ``layer_metrics`` turns a dump into metrics.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from math import ceil, floor

import workloads

MODULES = ("intlinalg", "polytope", "weights", "picard", "dataset", "correspondence")

#: functions wrapped with a span, as module.name
SPANNED = (
    "polytope.hull",
    "polytope.polar_dual",
    "polytope.transform",
    "polytope.unimodular_equivalent",
    "weights.anticanonical_points",
    "weights.newton_polytope",
    "picard.picard_rank",
    "correspondence.derive_iso",
    "correspondence.common_delta",
    "correspondence.verify_row",
    "correspondence.verify_swaps",
    "correspondence.search_sub_reflexive",
    "dataset.load_rows",
)
#: cached properties of Polytope3 wrapped with a span (computed once each)
PROPERTIES = ("lattice_points", "face_counts")
#: functions only counted: spanning them would swamp the traced run
COUNTED = ("intlinalg.mat_mul", "intlinalg.mat_inv_rational", "intlinalg.det")
#: lru_cache functions whose misses are read at the end of a pass
CACHED = ("weights.newton_polytope", "picard.picard_rank", "correspondence.common_delta")


def _box_points(poly) -> int:
    """Integer points of the bounding box of a polytope's vertices."""
    n = 1
    for i in range(3):
        coords = [v[i] for v in poly.vertices]
        n *= max(0, floor(max(coords)) - ceil(min(coords)) + 1)
    return n


def _search_attrs(args, result):
    summary = workloads.search_summary(result)
    return {**summary, "truncated": int(summary["truncated"])}


#: the attributes each span records about its call, summed per function
ATTR_KEYS = {
    "polytope.hull": ("points_in", "vertices_out"),
    "polytope.lattice_points": ("points_out", "box_points"),
    "polytope.unimodular_equivalent": ("hits",),
    "weights.anticanonical_points": ("points_out",),
    "correspondence.search_sub_reflexive": ("explored", "found", "truncated"),
}
#: how each span computes them: f(args, result) -> {key: value}
ATTRS = {
    "polytope.hull": lambda args, r: {
        "points_in": len(args[0]),
        "vertices_out": r.n_vertices,
    },
    "polytope.lattice_points": lambda args, r: {
        "points_out": len(r),
        "box_points": _box_points(args[0]),
    },
    "polytope.unimodular_equivalent": lambda args, r: {"hits": int(r is not None)},
    "weights.anticanonical_points": lambda args, r: {"points_out": len(r)},
    "correspondence.search_sub_reflexive": _search_attrs,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()  # (name, parent span name) -> calls
        self.cached: dict[str, object] = {}

    def _parent_name(self) -> str:
        return self.spans[self.stack[-1]][0] if self.stack else "-"

    def spanned(self, name, fn, prepare=None):
        """fn wrapped in a span; prepare(args) may rewrite args first."""
        spans, stack, attrs = self.spans, self.stack, ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if prepare is not None:
                args = prepare(args)
            rec = [name, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter_ns()
                stack.pop()
            if attrs is not None:
                rec[4] = attrs(args, result)
            return result

        return wrapper

    def counted(self, name, fn):
        counts, parent = self.counts, self._parent_name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name, parent()] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, package) -> None:
        """Rebind the traced functions of an imported k3corr package.

        A traced name the package no longer has raises AttributeError, and
        a traced cache or property of another kind raises TypeError, so the
        traced pass fails instead of reporting 0 for it.
        """
        modules = [package] + [getattr(package, m) for m in MODULES]
        for qual in SPANNED + COUNTED:
            mod, attr = qual.split(".")
            orig = getattr(getattr(package, mod), attr)
            if qual in CACHED:
                if not hasattr(orig, "cache_info"):
                    raise TypeError(f"{qual} is not an lru_cache")
                self.cached[qual] = orig
            if qual in COUNTED:
                new = self.counted(qual, orig)
            elif qual == "polytope.hull":
                new = self.spanned(qual, orig, prepare=_listed_points)
            else:
                new = self.spanned(qual, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, new)
        cls = package.polytope.Polytope3
        for prop in PROPERTIES:
            orig = vars(cls)[prop]
            if not isinstance(orig, functools.cached_property):
                raise TypeError(f"Polytope3.{prop} is not a cached_property")
            wrapped = functools.cached_property(
                self.spanned(f"polytope.{prop}", orig.func)
            )
            wrapped.__set_name__(cls, prop)
            setattr(cls, prop, wrapped)
        cls.contains_point = self.counted(
            "polytope.contains_point", cls.contains_point
        )

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counts": [[n, p, c] for (n, p), c in sorted(self.counts.items())],
            "misses": {q: f.cache_info().misses for q, f in self.cached.items()},
        }

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.dump(), fh, separators=(",", ":"))


def _listed_points(args):
    """Materialize hull's point iterable so the span can count it."""
    return (list(args[0]),) + tuple(args[1:])


# -- derivation ----------------------------------------------------------


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0
        run_start = run_end = None
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= c_start:
                continue
            if run_end is None or c_start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = c_start, c_end
            else:
                run_end = max(run_end, c_end)
        if run_end is not None:
            covered += run_end - run_start
        out.append(end - start - covered)
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(dump: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass, named layer.function.metric."""
    spans = dump["spans"]
    calls: Counter = Counter()
    self_ns: Counter = Counter()
    attrs: dict[str, Counter] = defaultdict(Counter)
    for (name, *_rest, extra), own in zip(spans, self_times(spans)):
        calls[name] += 1
        self_ns[name] += own
        if extra:
            attrs[name].update(extra)
    metrics: dict[str, float] = {}
    for name in SPANNED + tuple(f"polytope.{p}" for p in PROPERTIES):
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = self_ns[name] / 1e9
        for key in ATTR_KEYS.get(name, ()):
            metrics[f"{name}.{key}"] = attrs[name][key]
    counted: Counter = Counter()
    by_parent: Counter = Counter()
    for name, parent, count in dump["counts"]:
        counted[name] += count
        by_parent[name, parent] += count
    for name in COUNTED + ("polytope.contains_point",):
        metrics[f"{name}.calls"] = counted[name]
    for part in ("lattice_points", "hull"):
        metrics[f"polytope.contains_point.calls_in_{part}"] = by_parent[
            "polytope.contains_point", f"polytope.{part}"
        ]
    for name in CACHED:
        metrics[f"{name}.misses"] = dump["misses"].get(name, 0)
    m = metrics
    m["polytope.hull.vertex_ratio"] = _ratio(
        m["polytope.hull.vertices_out"], m["polytope.hull.points_in"]
    )
    m["polytope.lattice_points.kept_ratio"] = _ratio(
        m["polytope.lattice_points.points_out"], m["polytope.lattice_points.box_points"]
    )
    m["polytope.unimodular_equivalent.hit_ratio"] = _ratio(
        m["polytope.unimodular_equivalent.hits"],
        m["polytope.unimodular_equivalent.calls"],
    )
    return metrics


def dominant_layer(metrics: dict[str, float]) -> str:
    """The traced function with the largest self time."""
    return max(
        (k for k in metrics if k.endswith(".self_s")), key=metrics.__getitem__
    )[: -len(".self_s")]

