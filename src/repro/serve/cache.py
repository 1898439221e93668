"""Plan and result caching for the serving layer.

Serving workloads are template-heavy: the same handful of logical plans
arrive over and over with Zipf-distributed popularity.  Two caches
exploit that:

* the **plan cache** maps a normalized logical plan (structure +
  per-scan relation fingerprints) to a *pinned* physical plan — the
  same plan tree with every ``"auto"`` algorithm replaced by the name
  the planner resolved on first execution.  A hit skips profile
  building and the planner's decision tree; because the planner is a
  deterministic function of the (unchanged) data, the pinned plan
  reproduces the auto plan's result bit for bit.
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

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from ..aggregation import GROUPBY_ALGORITHMS
from ..joins import ALGORITHMS
from ..query.executor import QueryExecutor
from ..query.plan import Aggregate, Join, OperatorTrace, PlanNode, Project, Scan
from ..relational.relation import Relation

Signature = Tuple


def relation_fingerprint(relation: Relation) -> str:
    """Content hash of a relation: schema, key designation, and bytes.

    Two relations with identical columns (names, dtypes, values, order)
    and the same key column collide on purpose; any difference — one
    changed payload value included — produces a new fingerprint.
    """
    digest = hashlib.blake2b(digest_size=16)
    digest.update(relation.key.encode("utf-8"))
    for name, array in relation.columns().items():
        digest.update(b"\x00")
        digest.update(name.encode("utf-8"))
        digest.update(str(array.dtype).encode("ascii"))
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def plan_signature(
    node: PlanNode, fingerprint: Callable[[Relation], str]
) -> Signature:
    """Normalized, hashable identity of a logical plan over its data.

    *fingerprint* resolves a scanned relation to its content hash (the
    server passes a catalog-memoized resolver).  The signature includes
    requested algorithm names: forcing ``"SMJ-OM"`` and leaving
    ``"auto"`` may produce different row orders, so they must not share
    result-cache entries.
    """
    if isinstance(node, Scan):
        return ("scan", fingerprint(node.relation))
    if isinstance(node, Project):
        return ("project", tuple(node.columns), plan_signature(node.child, fingerprint))
    if isinstance(node, Join):
        return (
            "join",
            node.algorithm,
            plan_signature(node.left, fingerprint),
            plan_signature(node.right, fingerprint),
        )
    if isinstance(node, Aggregate):
        return (
            "aggregate",
            node.algorithm,
            node.group_column,
            tuple((spec.column, spec.op) for spec in node.aggregates),
            plan_signature(node.child, fingerprint),
        )
    raise TypeError(f"unknown plan node {type(node).__name__}")


def plan_relations(node: PlanNode) -> List[Relation]:
    """Every relation the plan scans, in traversal order."""
    if isinstance(node, Scan):
        return [node.relation]
    if isinstance(node, Project):
        return plan_relations(node.child)
    if isinstance(node, Join):
        return plan_relations(node.left) + plan_relations(node.right)
    if isinstance(node, Aggregate):
        return plan_relations(node.child)
    raise TypeError(f"unknown plan node {type(node).__name__}")


# -- plan pinning -------------------------------------------------------------


def pin_plan(
    plan: PlanNode,
    trace: Sequence[OperatorTrace],
    optimize: bool = True,
    fused: Optional[bool] = None,
) -> PlanNode:
    """Rebuild *plan* with the algorithms an execution actually resolved.

    *trace* is the :class:`~repro.query.plan.OperatorTrace` list of one
    ``execute(plan, optimize=optimize)`` run; entries are consumed in
    the executor's append order (left subtree, right subtree, operator).
    ``optimize`` decides whether a Project-over-Join folded into the
    join (pushdown: one entry for the whole subtree) or ran separately;
    ``fused`` is :meth:`~repro.query.executor.QueryExecutor.fuses` of the
    executor that produced *trace* (default: a plain single-device
    executor's, i.e. ``optimize``), so an Aggregate-over-Join consumes a
    single fused entry whose ``algorithm`` is ``"<join>+<group-by>"``.
    Only names the algorithm registries know are pinned — degraded
    spellings like ``"OOC[PHJ-OM]"`` are left as the original request.
    """
    if fused is None:
        fused = QueryExecutor().fuses(optimize)
    position = 0

    def take() -> OperatorTrace:
        nonlocal position
        entry = trace[position]
        position += 1
        return entry

    def join_name(name: str) -> Optional[str]:
        return name if name in ALGORITHMS else None

    def agg_name(name: str) -> Optional[str]:
        return name if name in GROUPBY_ALGORITHMS else None

    def walk_join(node: Join) -> Join:
        left = walk(node.left)
        right = walk(node.right)
        resolved = join_name(take().algorithm)
        if resolved is None:
            return replace(node, left=left, right=right)
        return replace(node, left=left, right=right, algorithm=resolved)

    def walk(node: PlanNode) -> PlanNode:
        if isinstance(node, Scan):
            take()
            return node
        if isinstance(node, Project):
            if optimize and isinstance(node.child, Join):
                # Projection pushdown: the executor emitted only the
                # join's entry for this whole subtree.
                return replace(node, child=walk_join(node.child))
            child = walk(node.child)
            take()  # the Project's own entry
            return replace(node, child=child)
        if isinstance(node, Join):
            return walk_join(node)
        if isinstance(node, Aggregate):
            if fused and isinstance(node.child, Join):
                left = walk(node.child.left)
                right = walk(node.child.right)
                entry = take()
                join_part, _, agg_part = entry.algorithm.partition("+")
                child = replace(node.child, left=left, right=right)
                if join_name(join_part) is not None:
                    child = replace(child, algorithm=join_part)
                pinned = replace(node, child=child)
                if agg_name(agg_part) is not None:
                    pinned = replace(pinned, algorithm=agg_part)
                return pinned
            child = walk(node.child)
            resolved = agg_name(take().algorithm)
            if resolved is None:
                return replace(node, child=child)
            return replace(node, child=child, algorithm=resolved)
        raise TypeError(f"unknown plan node {type(node).__name__}")

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

    @property
    def entry_keys(self) -> List[Signature]:
        return list(self._entries)


# -- typed wrappers -----------------------------------------------------------


@dataclass
class PinnedPlan:
    """A plan-cache value: the pinned tree plus its provenance."""

    plan: PlanNode
    pinned_from: str  #: the root operator description that resolved it


def output_nbytes(output: object) -> int:
    """Bytes of a query output (a Relation or an aggregate column dict)."""
    if isinstance(output, Relation):
        return output.total_bytes
    if isinstance(output, dict):
        return sum(int(np.asarray(col).nbytes) for col in output.values())
    return 0


class PlanCache(DependentLRU):
    """Signature -> :class:`PinnedPlan`, bounded by entry count."""

    def __init__(self, max_entries: int = 256):
        super().__init__(max_entries=max_entries)


class ResultCache(DependentLRU):
    """Signature -> materialized output, bounded by a byte budget."""

    def __init__(self, max_bytes: int = 64 << 20):
        super().__init__(max_bytes=max_bytes)
