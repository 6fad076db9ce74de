"""Span tracing for the benchmark's traced run, and the per-layer metrics.

``Tracer.install`` wraps public functions of ``rbsep`` at every module
binding that refers to them. A function imported by name into another
module (``exact.py`` does ``from .hitting import greedy_hitting_set``) is
replaced there too, so calls the library makes to itself are recorded. No
file of the library changes; ``uninstall`` puts the original functions
back.

A span is ``[name, start, end, parent, instance, counts]``: the wrapped
function, ``time.perf_counter`` readings, the index of the enclosing span
(-1 for none), the id of the benchmark call it belongs to, and counters read
at the boundary (``None`` when the function has none). Spans stay in memory
until the worker writes them out after its last batch.

A wrapped name that the library no longer has is skipped; the metrics that
need it are then left out of the report instead of failing the run.
"""

from __future__ import annotations

import inspect
import os
import sys
import time

# (layer, group, module, attribute, counter). Layers are rbsep's modules;
# groups are the boundaries the per-layer metrics are read from.
TARGETS = (
    ("hitting", "search", "rbsep.hitting", "minimum_hitting_set", "nodes"),
    ("hitting", "search", "rbsep.hitting", "hitting_set_within", "nodes"),
    ("hitting", "greedy", "rbsep.hitting", "greedy_hitting_set", None),
    ("exact", "solve", "rbsep.exact", "sep_rb_exact", None),
    ("exact", "solve", "rbsep.exact", "sep_exact", None),
    ("exact", "solve", "rbsep.exact", "sep_exact_allow_twins", None),
    ("exact", "solve", "rbsep.exact", "gamma_exact", None),
    ("exact", "sweep", "rbsep.exact", "maxsep_exact", "colorings"),
    ("exact", "mask_build", "rbsep.exact", "rb_difference_masks", "masks"),
    ("exact", "mask_build", "rbsep.exact", "all_pairs_difference_masks", "masks"),
    ("approx", "solve", "rbsep.approx", "sep_rb_greedy", None),
    ("approx", "solve", "rbsep.approx", "sep_all_pairs_greedy", None),
    ("approx", "reduce", "rbsep.approx", "reduce_rb_to_set_cover", "universe"),
    ("approx", "reduce", "rbsep.approx", "all_pairs_set_system", "universe"),
    ("approx", "cover", "rbsep.approx", "greedy_set_cover", None),
    ("trees", "construct", "rbsep.trees", "tree_rb_construct", None),
    ("trees", "construct", "rbsep.trees", "tree_all_pairs_construct", None),
    ("graphs", "verify", "rbsep.graphs", "verify_rb_separating", None),
    ("graphs", "verify", "rbsep.graphs", "verify_separating", None),
    ("graphs", "verify", "rbsep.graphs", "verify_dominating", None),
    ("graphs", "twin_classes", "rbsep.graphs", "twin_classes", None),
    ("graphs", "profile", "rbsep.graphs", "graph_profile", None),
    ("io", "read", "rbsep.io", "read_graph", "bytes"),
    ("io", "read", "rbsep.io", "read_coloring", "bytes"),
    ("io", "read", "rbsep.io", "read_vertex_set", "bytes"),
    ("io", "write", "rbsep.io", "write_graph", "bytes"),
    ("io", "write", "rbsep.io", "write_coloring", "bytes"),
    ("io", "write", "rbsep.io", "write_vertex_set", "bytes"),
    ("reports", "write", "rbsep.reports", "write_run_report", None),
    ("reports", "load", "rbsep.reports", "load_run_report", None),
    ("reports", "reverify", "rbsep.reports", "reverify_run_report", None),
    ("cli", "main", "rbsep.cli", "main", None),
)

# The benchmark's own span around each call it makes into the library.
ROOT = "bench.call"
LAYERS = ("bench", "cli", "reports", "io", "exact", "approx", "trees", "hitting", "graphs")
GROUP_OF = {f"{mod}.{attr}": (layer, group) for layer, group, mod, attr, _ in TARGETS}
GROUP_OF[ROOT] = ("bench", "call")


def _param_index(fn, name: str) -> int | None:
    try:
        params = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return None
    return params.index(name) if name in params else None


class Tracer:
    """Records spans around rbsep's public functions while installed."""

    def __init__(self) -> None:
        self.spans: list = []
        self.instance = ""
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items()) if k == "rbsep" or k.startswith("rbsep.")]
        self.missing = []
        for _layer, _group, mod, attr, counter in TARGETS:
            fn = getattr(sys.modules.get(mod), attr, None)
            if not callable(fn):
                self.missing.append(f"{mod}.{attr}")
                continue
            wrapper = self._wrap(fn, f"{mod}.{attr}", counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._restore.append((module, key, fn))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, fn in reversed(self._restore):
            setattr(module, key, fn)
        self._restore.clear()

    def root(self, instance: str, fn):
        """Run ``fn()`` as the benchmark call ``instance``, inside a root span."""
        self.instance = instance
        return self._wrap(fn, ROOT, None)()

    def _wrap(self, fn, name: str, counter: str | None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        stats_at = _param_index(fn, "stats") if counter == "nodes" else None

        def wrapper(*args, **kwargs):
            stats = before = None
            if stats_at is not None:
                stats = kwargs["stats"] if "stats" in kwargs else (
                    args[stats_at] if len(args) > stats_at else None
                )
                if type(stats) is list:
                    before = stats[0]
            sid = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.instance, None]
            spans.append(span)
            stack.append(sid)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                span[5] = _count(counter, args, kwargs, result, stats, before)
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def _count(counter, args, kwargs, result, stats, before):
    if counter == "nodes":
        return None if before is None else {"nodes": stats[0] - before}
    if counter == "masks":
        return {"masks": len(result), "distinct": len(set(result))}
    if counter == "universe":
        return {"universe": result.universe_size}
    if counter == "colorings":
        return {"colorings": result.per_coloring_count}
    if counter == "bytes":
        path = args[0] if args else kwargs.get("path")
        return {"bytes": os.path.getsize(path)}
    raise ValueError(f"unknown counter {counter!r}")


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct child spans cover.

    The worker is single-threaded, so children of one span never overlap
    and their durations add.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _inst, _counts in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_n, start, end, *_rest) in enumerate(spans)]


def layer_metrics(spans, traced_walls: list[float], overhead_frac: float, missing=()) -> dict:
    """Per-layer metrics, averaged per traced batch.

    ``overhead_frac`` is the traced batches' paced time over the untraced
    batches' less 1; it is reported as ``tracing_overhead_frac``.

    Every ``*_s`` value is a self time, so the ``<layer>.self_s`` values add
    up to the traced wall time less the benchmark loop's own bookkeeping.
    A metric is left out when none of the functions it wraps exists.
    """
    batches = len(traced_walls)
    selfs = self_times(spans)
    time_of: dict[tuple[str, str], float] = {}
    calls_of: dict[tuple[str, str], int] = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    counts: dict[str, int] = {}
    nodes_seen = False
    greedy_in_sweep = 0
    search_in_sweep = 0
    for span, self_s in zip(spans, selfs):
        name, _s, _e, parent, _inst, extra = span
        key = GROUP_OF[name]
        time_of[key] = time_of.get(key, 0.0) + self_s
        calls_of[key] = calls_of.get(key, 0) + 1
        layer_self[key[0]] += self_s
        if extra:
            nodes_seen = nodes_seen or "nodes" in extra
            for k, v in extra.items():
                counts[k] = counts.get(k, 0) + v
        if parent >= 0 and GROUP_OF[spans[parent][0]] == ("exact", "sweep"):
            if key == ("hitting", "greedy"):
                greedy_in_sweep += 1
            elif key == ("hitting", "search"):
                search_in_sweep += 1

    # A group is absent only when every function in it is missing.
    present = {GROUP_OF[f"{m}.{a}"] for _l, _g, m, a, _c in TARGETS if f"{m}.{a}" not in missing}

    def per_batch(x: float) -> float:
        return x / batches

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out: dict[str, tuple[float, str]] = {}

    def put(name: str, groups, value: float, unit: str) -> None:
        if all(g in present for g in groups):
            out[name] = (value, unit)

    search, greedy = ("hitting", "search"), ("hitting", "greedy")
    sweep, masks = ("exact", "sweep"), ("exact", "mask_build")
    search_s = time_of.get(search, 0.0)
    put("hitting.search_s", [search], per_batch(search_s), "s")
    put("hitting.search_calls", [search], per_batch(calls_of.get(search, 0)), "count")
    if nodes_seen or not calls_of.get(search):
        put("hitting.nodes", [search], per_batch(counts.get("nodes", 0)), "count")
        put("hitting.nodes_per_s", [search], ratio(counts.get("nodes", 0), search_s), "1/s")
    put("hitting.greedy_s", [greedy], per_batch(time_of.get(greedy, 0.0)), "s")
    put("hitting.greedy_calls", [greedy], per_batch(calls_of.get(greedy, 0)), "count")
    put("exact.sweep_self_s", [sweep], per_batch(time_of.get(sweep, 0.0)), "s")
    put("exact.colorings", [sweep], per_batch(counts.get("colorings", 0)), "count")
    put(
        "exact.colorings_to_greedy_frac",
        [sweep, greedy],
        ratio(greedy_in_sweep, counts.get("colorings", 0)),
        "ratio",
    )
    put("exact.decision_calls", [sweep, search], per_batch(search_in_sweep), "count")
    put("exact.mask_build_s", [masks], per_batch(time_of.get(masks, 0.0)), "s")
    put("exact.masks_total", [masks], per_batch(counts.get("masks", 0)), "count")
    put(
        "exact.masks_distinct_ratio",
        [masks],
        ratio(counts.get("distinct", 0), counts.get("masks", 0)),
        "ratio",
    )
    reduce_, cover = ("approx", "reduce"), ("approx", "cover")
    put("approx.reduce_s", [reduce_], per_batch(time_of.get(reduce_, 0.0)), "s")
    put("approx.universe_elems", [reduce_], per_batch(counts.get("universe", 0)), "count")
    put("approx.cover_s", [cover], per_batch(time_of.get(cover, 0.0)), "s")
    put("approx.cover_calls", [cover], per_batch(calls_of.get(cover, 0)), "count")
    construct = ("trees", "construct")
    put("trees.construct_s", [construct], per_batch(time_of.get(construct, 0.0)), "s")
    verify, twins = ("graphs", "verify"), ("graphs", "twin_classes")
    put("graphs.verify_s", [verify], per_batch(time_of.get(verify, 0.0)), "s")
    put("graphs.verify_calls", [verify], per_batch(calls_of.get(verify, 0)), "count")
    put("graphs.twin_classes_s", [twins], per_batch(time_of.get(twins, 0.0)), "s")
    read, write = ("io", "read"), ("io", "write")
    put("io.read_s", [read], per_batch(time_of.get(read, 0.0)), "s")
    put("io.write_s", [write], per_batch(time_of.get(write, 0.0)), "s")
    put("io.bytes", [read, write], per_batch(counts.get("bytes", 0)), "B")
    rwrite, reverify = ("reports", "write"), ("reports", "reverify")
    put("reports.write_s", [rwrite], per_batch(time_of.get(rwrite, 0.0)), "s")
    put("reports.reverify_s", [reverify], per_batch(time_of.get(reverify, 0.0)), "s")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (per_batch(layer_self[layer]), "s")
    out["traced_wall_s"] = (sum(traced_walls) / batches, "s")
    out["tracing_overhead_frac"] = (overhead_frac, "ratio")
    return out
