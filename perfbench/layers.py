"""Outside-in per-layer tracer for the traced benchmark run.

Only ``run.py --trace 1`` imports this module, so the timed runs load no
wrappers.  :class:`Tracer` wraps the library's public functions and
methods from the outside; nothing in the library changes.  A wrapped
module-level function is replaced in *every* loaded ``repro`` module
that bound the name.  For example ``analyze_indices`` is patched both
in ``repro.primitives.sector_analysis`` and in ``repro.primitives.gather``,
which imported it.

Each call opens a span with a parent link, so spans are kept in memory.
A layer's host time is *self* time: a span's duration minus the
durations of its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

#: (module, function, layer key) — module-level functions.
FUNCTIONS = [
    ("repro.primitives.sector_analysis", "analyze_indices", "primitives.sector_analysis"),
    ("repro.primitives.sector_analysis", "sequential_stats", "primitives.sector_analysis"),
    ("repro.primitives.sort_pairs", "sort_pairs", "primitives.sort_pairs"),
    ("repro.primitives.radix_partition", "radix_partition", "primitives.radix_partition"),
    ("repro.primitives.gather", "gather", "primitives.gather"),
    ("repro.primitives.gather", "gather_stats_only", "primitives.gather"),
    ("repro.primitives.gather", "scatter", "primitives.gather"),
    ("repro.primitives.hash_table", "build_table", "primitives.hash_table"),
    ("repro.primitives.hash_table", "probe_table", "primitives.hash_table"),
    ("repro.primitives.grouping", "group_identify", "primitives.grouping"),
    ("repro.primitives.grouping", "groups_from_sorted", "primitives.grouping"),
    ("repro.primitives.grouping", "count_distinct", "primitives.grouping"),
    ("repro.primitives.grouping", "distinct_sorted", "primitives.grouping"),
    ("repro.joins.planner", "recommend_join_algorithm", "joins.planner"),
    ("repro.aggregation.planner", "recommend_groupby_algorithm", "aggregation.planner"),
    ("repro.aggregation.planner", "estimate_group_cardinality", "aggregation.planner"),
    ("repro.cluster.sharded", "sharded_join", "cluster"),
    ("repro.cluster.sharded", "sharded_group_by", "cluster"),
    ("repro.cluster.shuffle", "shuffle_columns", "cluster.shuffle"),
    ("repro.cluster.shuffle", "shuffle_relation", "cluster.shuffle"),
    ("repro.faults.recovery", "resilient_join", "faults.recovery"),
    ("repro.faults.recovery", "resilient_group_by", "faults.recovery"),
]

#: (module, class, method, layer key) — methods, patched on the class
#: and on every subclass that overrides them.
METHODS = [
    ("repro.gpusim.context", "GPUContext", "submit", "gpusim.submit"),
    ("repro.gpusim.context", "GPUContext", "submit_many", "gpusim.submit"),
    ("repro.gpusim.memory", "BufferPool", "take", "gpusim.pool"),
    ("repro.gpusim.memory", "BufferPool", "give", "gpusim.pool"),
    ("repro.joins.base", "JoinAlgorithm", "join", "joins"),
    ("repro.joins.out_of_core", "OutOfCoreJoin", "join", "joins"),
    ("repro.joins.fused", "FusedJoinAggregate", "run", "joins"),
    ("repro.joins.planner", "JoinWorkloadProfile", "from_relations", "joins.planner"),
    ("repro.aggregation.base", "GroupByAlgorithm", "group_by", "aggregation"),
    ("repro.aggregation.out_of_core", "OutOfCoreGroupBy", "group_by", "aggregation"),
    ("repro.query.executor", "QueryExecutor", "execute", "query.execute"),
    ("repro.tier.executor", "TieredRuntime", "run_join", "tier.run"),
    ("repro.tier.executor", "TieredRuntime", "run_group_by", "tier.run"),
    ("repro.serve.server", "QueryServer", "run", "serve.loop"),
    ("repro.serve.server", "QueryServer", "submit", "serve.loop"),
    ("repro.serve.server", "QueryServer", "update", "serve.loop"),
]

#: Layer → per-layer metrics → the end-to-end metrics each should move
#: → the workloads where it carries weight.  README.md renders this table.
LAYER_MAP = {
    "gpusim": {
        "metrics": ["gpusim.submit.calls", "gpusim.submit.host_ms",
                    "gpusim.host_us_per_kernel", "gpusim.pool.hit_ratio",
                    "gpusim.pool.recycled"],
        "moves": ["host_ms_p50", "host_rows_per_s", "host_rss_peak_mb"],
        "workloads": ["join-wide", "groupby-modes"],
    },
    "primitives": {
        "metrics": ["primitives.sector_analysis.host_ms", "primitives.sort_pairs.host_ms",
                    "primitives.radix_partition.host_ms", "primitives.gather.host_ms",
                    "primitives.hash_table.host_ms", "primitives.grouping.host_ms"],
        "moves": ["host_ms_p50"],
        "workloads": ["join-wide", "groupby-modes"],
    },
    "joins": {
        "metrics": ["joins.host_ms", "joins.planner.host_ms", "joins.sim_ms.transform",
                    "joins.sim_ms.match", "joins.sim_ms.materialize"],
        "moves": ["host_ms_p50", "sim_ms_p50", "sim_rows_per_s"],
        "workloads": ["join-wide"],
    },
    "aggregation": {
        "metrics": ["aggregation.host_ms", "aggregation.planner.host_ms", "aggregation.sim_ms"],
        "moves": ["host_ms_p50", "sim_ms_p50"],
        "workloads": ["groupby-modes"],
    },
    "query": {
        "metrics": ["query.execute.self_host_ms", "query.fused_ops"],
        "moves": ["host_ms_p50"],
        "workloads": ["join-wide", "groupby-modes", "serve-tier-rw"],
    },
    "cluster": {
        "metrics": ["cluster.host_ms", "cluster.shuffle.host_ms", "cluster.link_bytes",
                    "cluster.sim_ms"],
        "moves": ["host_ms_p50", "sim_ms_p95"],
        "workloads": ["groupby-modes"],
    },
    "faults": {
        "metrics": ["faults.retries", "faults.degraded_ops", "faults.recovery.host_ms"],
        "moves": ["host_ms_p90", "failed_frac"],
        "workloads": ["groupby-modes"],
    },
    "serve": {
        "metrics": ["serve.loop.self_host_ms", "serve.queue_wait_sim_ms_mean",
                    "serve.plan_cache.hit_ratio", "serve.result_cache.hit_ratio",
                    "serve.invalidated_entries", "serve.rejected", "serve.cancelled",
                    "serve.deadline_missed", "serve.brownout_transitions"],
        "moves": ["sim_ms_p95", "sim_goodput_qps", "failed_frac", "host_ms_p50"],
        "workloads": ["serve-tier-rw"],
    },
    "tier": {
        "metrics": ["tier.hit_ratio", "tier.admissions", "tier.evictions", "tier.demotions",
                    "tier.run.host_ms", "tier.invalidated_bytes"],
        "moves": ["sim_ms_p95", "sim_goodput_qps", "host_ms_p50"],
        "workloads": ["serve-tier-rw"],
    },
    "obs": {
        "metrics": ["obs.trace_overhead_frac"],
        "moves": [],
        "workloads": ["join-wide", "groupby-modes", "serve-tier-rw"],
    },
    "workloads/relational": {
        "metrics": ["setup.generate.host_s", "setup.reference.host_s"],
        "moves": ["setup_s"],
        "workloads": ["join-wide", "groupby-modes", "serve-tier-rw"],
    },
}

UNITS = {
    "calls": "count", "recycled": "count", "fused_ops": "count", "retries": "count",
    "degraded_ops": "count", "link_bytes": "bytes", "invalidated_entries": "count",
    "rejected": "count", "cancelled": "count", "deadline_missed": "count",
    "brownout_transitions": "count", "admissions": "count", "evictions": "count",
    "demotions": "count", "invalidated_bytes": "bytes", "hit_ratio": "ratio",
    "host_us_per_kernel": "us", "trace_overhead_frac": "fraction",
}


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    last = metric.rsplit(".", 1)[-1]
    if last in UNITS:
        return UNITS[last]
    if metric.endswith("host_s"):
        return "s"
    if "sim_ms" in metric:
        return "sim-ms"
    return "ms"


@dataclass
class Span:
    key: str
    #: the wrapped function's name
    name: str
    parent: Optional[int]
    start: float
    end: float = 0.0
    #: extra facts taken from the call or its result
    kernels: int = 0
    sim_s: float = 0.0
    link_bytes: int = 0
    pool_hit: Optional[bool] = None


class Tracer:
    """Installs span-recording wrappers; :meth:`uninstall` restores them."""

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._restore: List[Callable[[], None]] = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, func, key: str, name: str):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = Span(key, name, stack[-1] if stack else None, clock())
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            _annotate(span, name, args, kwargs, result)
            return result

        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self) -> "Tracer":
        for module_name, attr, key in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self._wrap(original, key, attr)
            for module in [m for n, m in list(sys.modules.items())
                           if n == "repro" or n.startswith("repro.")]:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
                        self._restore.append(
                            functools.partial(setattr, module, name, original))
        for module_name, class_name, method, key in METHODS:
            base = getattr(importlib.import_module(module_name), class_name)
            for cls in [base] + _subclasses(base):
                if method not in vars(cls):
                    continue
                raw = vars(cls)[method]
                if isinstance(raw, classmethod):
                    patched = classmethod(self._wrap(raw.__func__, key, method))
                else:
                    patched = self._wrap(raw, key, method)
                setattr(cls, method, patched)
                self._restore.append(functools.partial(setattr, cls, method, raw))
        return self

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- analysis ------------------------------------------------------------

    def self_seconds(self) -> Dict[str, float]:
        """Self time per layer key (span minus its direct child spans)."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.end - span.start
        totals: Dict[str, float] = {}
        for index, span in enumerate(self.spans):
            totals[span.key] = totals.get(span.key, 0.0) + (
                span.end - span.start - child[index])
        return totals

    def outermost(self, key: str) -> List[Span]:
        """Spans of *key* with no ancestor of the same key."""
        selected = []
        for span in self.spans:
            if span.key != key:
                continue
            parent = span.parent
            while parent is not None and self.spans[parent].key != key:
                parent = self.spans[parent].parent
            if parent is None:
                selected.append(span)
        return selected


def _subclasses(cls) -> list:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def _annotate(span: Span, name: str, args, kwargs, result) -> None:
    """Pull the per-layer facts a span needs out of its call."""
    if name == "submit":
        span.kernels = 1
    elif name == "submit_many":
        stats_list = args[1] if len(args) > 1 else kwargs.get("stats_list", ())
        span.kernels = len(stats_list)
    elif name == "take":
        span.pool_hit = result is not None
    elif name == "give":
        span.pool_hit = bool(result)
    elif name in ("sharded_join", "sharded_group_by"):
        span.sim_s = float(result.total_seconds)
        span.link_bytes = int(result.cluster.link_bytes().sum())
    elif name == "group_by":
        span.sim_s = float(result.total_seconds)


def per_layer(tracer: Tracer, queries: int, counters: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metrics of one traced pass.

    Host times are milliseconds of self time per query; counts and bytes
    are totals over the pass.  *counters* carries the values that come
    from the library's own observability (TraceSession phases and fault
    counters, server and tier statistics), already keyed by metric name.
    """
    self_s = tracer.self_seconds()
    per_query_ms = 1e3 / max(queries, 1)

    def host_ms(key: str) -> float:
        return self_s.get(key, 0.0) * per_query_ms

    submits = tracer.outermost("gpusim.submit")
    kernels = sum(span.kernels for span in submits)
    takes = [s.pool_hit for s in tracer.spans if s.name == "take"]
    metrics = {
        "gpusim.submit.calls": float(len(submits)),
        "gpusim.submit.host_ms": host_ms("gpusim.submit"),
        "gpusim.host_us_per_kernel": (
            self_s.get("gpusim.submit", 0.0) * 1e6 / kernels if kernels else 0.0),
        "gpusim.pool.hit_ratio": sum(takes) / len(takes) if takes else 0.0,
        "gpusim.pool.recycled": float(sum(
            1 for s in tracer.spans if s.name == "give" and s.pool_hit)),
        "primitives.sector_analysis.host_ms": host_ms("primitives.sector_analysis"),
        "primitives.sort_pairs.host_ms": host_ms("primitives.sort_pairs"),
        "primitives.radix_partition.host_ms": host_ms("primitives.radix_partition"),
        "primitives.gather.host_ms": host_ms("primitives.gather"),
        "primitives.hash_table.host_ms": host_ms("primitives.hash_table"),
        "primitives.grouping.host_ms": host_ms("primitives.grouping"),
        "joins.host_ms": host_ms("joins"),
        "joins.planner.host_ms": host_ms("joins.planner"),
        "aggregation.host_ms": host_ms("aggregation"),
        "aggregation.planner.host_ms": host_ms("aggregation.planner"),
        "aggregation.sim_ms": sum(s.sim_s for s in tracer.outermost("aggregation"))
        * per_query_ms,
        "query.execute.self_host_ms": host_ms("query.execute"),
        "query.fused_ops": float(sum(
            1 for s in tracer.spans if s.key == "joins" and s.name == "run")),
        "cluster.host_ms": host_ms("cluster"),
        "cluster.shuffle.host_ms": host_ms("cluster.shuffle"),
        "cluster.link_bytes": float(sum(s.link_bytes for s in tracer.outermost("cluster"))),
        "cluster.sim_ms": sum(s.sim_s for s in tracer.outermost("cluster")) * per_query_ms,
        "faults.recovery.host_ms": host_ms("faults.recovery"),
        "serve.loop.self_host_ms": host_ms("serve.loop"),
        "tier.run.host_ms": host_ms("tier.run"),
    }
    metrics.update(counters)
    return metrics
