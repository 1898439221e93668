"""Plan and result caching for the serving layer.

Serving workloads are template-heavy: the same handful of logical plans
arrive over and over with Zipf-distributed popularity.  Two caches
exploit that:

* the **plan cache** maps a normalized logical plan (structure +
  per-scan relation fingerprints) to its *pinned* algorithms — the
  names the planner resolved for its joins and group-bys on first
  execution.  A hit applies them to the request's own plan, skipping
  profile building and the planner's decision tree; because the
  planner is a deterministic function of the (unchanged) data, the
  pinned plan reproduces the auto plan's result bit for bit.  Only
  names are kept, so an entry holds no relation alive.
* the **result / sub-result cache** maps the same signature to the
  materialized output (the root result, plus join intermediates
  captured via the executor's ``join_output_hook``), LRU-evicted under
  a byte budget and *invalidated* whenever a relation the entry read is
  updated — a stale read is structurally impossible because every entry
  records its relation dependencies at insertion.

Both caches key on content fingerprints, so two registered relations
with equal bytes share entries and any data change misses cleanly.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, Optional, Sequence, Tuple

import numpy as np

from ..aggregation import GROUPBY_ALGORITHMS
from ..joins import ALGORITHMS
from ..query.executor import QueryExecutor
from ..query.plan import Aggregate, Join, OperatorTrace, PlanNode, Project, Scan
from ..relational.relation import Relation

Signature = Tuple


def plan_signature(node: PlanNode) -> Signature:
    """Normalized, hashable identity of a logical plan over its data.

    A scan signs itself with its relation's content
    :attr:`~repro.relational.relation.Relation.fingerprint`.  The
    signature includes requested algorithm names: forcing ``"SMJ-OM"``
    and leaving ``"auto"`` may produce different row orders, so they
    must not share result-cache entries.
    """
    if isinstance(node, Scan):
        return ("scan", node.relation.fingerprint)
    if isinstance(node, Project):
        return ("project", tuple(node.columns), plan_signature(node.child))
    if isinstance(node, Join):
        return (
            "join",
            node.algorithm,
            plan_signature(node.left),
            plan_signature(node.right),
        )
    if isinstance(node, Aggregate):
        return (
            "aggregate",
            node.algorithm,
            node.group_column,
            tuple((spec.column, spec.op) for spec in node.aggregates),
            plan_signature(node.child),
        )
    raise TypeError(f"unknown plan node {type(node).__name__}")


# -- plan pinning -------------------------------------------------------------


def cache_key(node: PlanNode, optimize: bool) -> Signature:
    """The plan- and result-cache key of *node* run with *optimize*."""
    return ("opt" if optimize else "raw", plan_signature(node))


def pin_plan(
    plan: PlanNode,
    trace: Sequence[OperatorTrace],
    optimize: bool = True,
    fused: Optional[bool] = None,
) -> Tuple[str, ...]:
    """The algorithms an execution of *plan* actually resolved.

    Returns one name per Join and Aggregate of *plan*, in post-order
    (:func:`with_algorithms` applies them to any plan of the same
    signature), so a pinned plan holds no relation.  *trace* is the
    :class:`~repro.query.plan.OperatorTrace` list of one
    ``execute(plan, optimize=optimize)`` run; entries are consumed in
    the executor's append order (left subtree, right subtree, operator).
    ``optimize`` decides whether a Project-over-Join folded into the
    join (pushdown: one entry for the whole subtree) or ran separately;
    ``fused`` is :meth:`~repro.query.executor.QueryExecutor.fuses` of the
    executor that produced *trace* (default: a plain single-device
    executor's, i.e. ``optimize``), so an Aggregate-over-Join consumes a
    single fused entry whose ``algorithm`` is ``"<join>+<group-by>"``.
    Only names the algorithm registries know are pinned — degraded
    spellings like ``"OOC[PHJ-OM]"`` keep the original request.
    """
    if fused is None:
        fused = QueryExecutor().fuses(optimize)
    entries = iter(trace)
    names = []

    def pin(resolved: str, registry, requested: str) -> None:
        names.append(resolved if resolved in registry else requested)

    def walk_join(node: Join) -> None:
        walk(node.left)
        walk(node.right)
        pin(next(entries).algorithm, ALGORITHMS, node.algorithm)

    def walk(node: PlanNode) -> None:
        if isinstance(node, Scan):
            next(entries)
        elif isinstance(node, Project):
            if optimize and isinstance(node.child, Join):
                # Projection pushdown: the executor emitted only the
                # join's entry for this whole subtree.
                walk_join(node.child)
            else:
                walk(node.child)
                next(entries)  # the Project's own entry
        elif isinstance(node, Join):
            walk_join(node)
        elif isinstance(node, Aggregate):
            if fused and isinstance(node.child, Join):
                walk(node.child.left)
                walk(node.child.right)
                join_part, _, agg_part = next(entries).algorithm.partition("+")
                pin(join_part, ALGORITHMS, node.child.algorithm)
            else:
                walk(node.child)
                agg_part = next(entries).algorithm
            pin(agg_part, GROUPBY_ALGORITHMS, node.algorithm)
        else:
            raise TypeError(f"unknown plan node {type(node).__name__}")

    walk(plan)
    return tuple(names)


def with_algorithms(plan: PlanNode, names: Sequence[str]) -> PlanNode:
    """*plan* with its Joins' and Aggregates' algorithms set to *names*,
    in :func:`pin_plan`'s post-order."""
    remaining = iter(names)

    def walk(node: PlanNode) -> PlanNode:
        if isinstance(node, Scan):
            return node
        if isinstance(node, Join):
            left, right = walk(node.left), walk(node.right)
            return replace(node, left=left, right=right, algorithm=next(remaining))
        child = walk(node.child)
        if isinstance(node, Aggregate):
            return replace(node, child=child, algorithm=next(remaining))
        return replace(node, child=child)

    return walk(plan)


# -- dependency-tracking LRU --------------------------------------------------


@dataclass
class CacheEntry:
    """One cached value with its relation dependencies."""

    key: Signature
    value: object
    nbytes: int
    deps: FrozenSet[str]
    hits: int = 0


class DependentLRU:
    """An LRU keyed on plan signatures with explicit invalidation.

    Entries carry the set of registered relation names they were
    computed from; :meth:`invalidate` evicts every entry depending on a
    name.  Eviction is by entry count and/or byte budget (whichever is
    set), least-recently-used first.
    """

    def __init__(
        self,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ):
        self._entries: "OrderedDict[Signature, CacheEntry]" = OrderedDict()
        self._dependents: Dict[str, set] = {}
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.current_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Signature) -> bool:
        return key in self._entries

    def get(self, key: Signature) -> Optional[CacheEntry]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        entry.hits += 1
        self.hits += 1
        return entry

    def put(
        self,
        key: Signature,
        value: object,
        deps: Sequence[str] = (),
        nbytes: int = 0,
    ) -> Optional[CacheEntry]:
        """Insert (or refresh) an entry; returns it, or ``None`` when the
        value alone exceeds the byte budget (uncacheable)."""
        if self.max_bytes is not None and nbytes > self.max_bytes:
            return None
        if key in self._entries:
            self._remove(key)
        entry = CacheEntry(
            key=key, value=value, nbytes=int(nbytes), deps=frozenset(deps)
        )
        self._entries[key] = entry
        self.current_bytes += entry.nbytes
        for dep in entry.deps:
            self._dependents.setdefault(dep, set()).add(key)
        self._shrink()
        return entry

    def invalidate(self, dep: str) -> int:
        """Evict every entry that depends on *dep*; returns the count."""
        keys = list(self._dependents.pop(dep, ()))
        for key in keys:
            if key in self._entries:
                self._remove(key)
                self.invalidations += 1
        return len(keys)

    def clear(self) -> None:
        self._entries.clear()
        self._dependents.clear()
        self.current_bytes = 0

    def _remove(self, key: Signature) -> None:
        entry = self._entries.pop(key)
        self.current_bytes -= entry.nbytes
        for dep in entry.deps:
            dependents = self._dependents.get(dep)
            if dependents is not None:
                dependents.discard(key)
                if not dependents:
                    del self._dependents[dep]

    def _shrink(self) -> None:
        while (
            self.max_entries is not None and len(self._entries) > self.max_entries
        ) or (
            self.max_bytes is not None and self.current_bytes > self.max_bytes
        ):
            oldest = next(iter(self._entries))
            self._remove(oldest)
            self.evictions += 1


# -- typed wrappers -----------------------------------------------------------


def output_nbytes(output: object) -> int:
    """Bytes of a query output (a Relation or an aggregate column dict)."""
    if isinstance(output, Relation):
        return output.total_bytes
    if isinstance(output, dict):
        return sum(int(np.asarray(col).nbytes) for col in output.values())
    return 0


def output_shell(output: object) -> object:
    """*output* over the same read-only columns, a group-by's in a new
    dict, so no caller can rebind a cached entry's column."""
    return OrderedDict(output) if isinstance(output, dict) else output


class PlanCache(DependentLRU):
    """Signature -> the :func:`pin_plan` algorithm names, bounded by entry
    count."""

    def __init__(self, max_entries: int = 256):
        super().__init__(max_entries=max_entries)


class ResultCache(DependentLRU):
    """Signature -> materialized output, bounded by a byte budget."""

    def __init__(self, max_bytes: int = 64 << 20):
        super().__init__(max_bytes=max_bytes)
