"""Aggregation-strategy selection heuristics.

The group-by analogue of the Figure 18 decision trees, derived from the
same traffic arguments:

* **few groups** (accumulator table L2-resident): hash aggregation wins —
  its random updates are cache hits and it streams every value column
  exactly once;
* **many groups** (table past L2): every atomic fold is a latency-bound
  random access; partitioned aggregation turns them into sequential
  streams at the price of ~2 RADIX-PARTITION passes per column;
* **sort aggregation** needs ~4 radix passes per column, so it only
  matches the partitioned strategy when inputs are pre-sorted (not
  modeled here) — it is kept for completeness and validation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from ..gpusim.device import A100, DeviceSpec
from ..primitives.grouping import count_distinct
from .hash_groupby import SLOT_BYTES

#: Above this many rows per group, global atomic folds contend enough
#: that partitioned aggregation wins in the L2-resident regime.
CONTENTION_ROWS_PER_GROUP = 128

#: Largest key sample examined when estimating group cardinality.
CARDINALITY_SAMPLE_LIMIT = 65536


def estimate_group_cardinality(
    keys: np.ndarray, sample_limit: int = CARDINALITY_SAMPLE_LIMIT
) -> int:
    """Group-cardinality estimate from a strided key sample.

    An optimizer would have catalog statistics; distinct-in-sample is a
    cheap lower bound that is exact for inputs of up to ``sample_limit``
    rows and deterministic (stride, not random sample) above it.  The
    single estimator behind every ``algorithm="auto"`` group-by path.

    >>> import numpy as np
    >>> estimate_group_cardinality(np.array([1, 1, 2, 3]))
    3
    >>> estimate_group_cardinality(np.zeros(1 << 20, dtype=np.int32))
    1
    """
    if keys.size <= sample_limit:
        return count_distinct(keys)
    return count_distinct(keys[:: max(1, keys.size // sample_limit)])


@dataclass
class GroupByWorkloadProfile:
    """Optimizer-visible statistics of a prospective aggregation."""

    rows: int
    estimated_groups: int
    zipf_factor: float = 0.0


@dataclass
class Recommendation:
    algorithm: str
    reasons: List[str] = field(default_factory=list)

    def explain(self) -> str:
        return f"{self.algorithm}: " + "; ".join(self.reasons)


def recommend_groupby_algorithm(
    profile: GroupByWorkloadProfile, device: DeviceSpec = A100
) -> Recommendation:
    """Pick the best aggregation strategy for a workload on a device.

    >>> few = GroupByWorkloadProfile(rows=1 << 16, estimated_groups=64)
    >>> recommend_groupby_algorithm(few).algorithm
    'HASH-AGG'
    >>> many = GroupByWorkloadProfile(rows=1 << 24, estimated_groups=1 << 21)
    >>> recommend_groupby_algorithm(many).algorithm
    'PART-AGG'
    """
    reasons: List[str] = []
    table_bytes = profile.estimated_groups * SLOT_BYTES * 2
    if table_bytes <= device.shared_mem_bytes:
        reasons.append(
            f"accumulator table ~{table_bytes} B fits shared memory: "
            "per-block private tables, one sequential pass per column"
        )
        return Recommendation("HASH-AGG", reasons)
    if table_bytes <= device.l2_bytes:
        reasons.append(
            f"accumulator table ~{table_bytes} B fits L2 ({device.l2_bytes} B): "
            "random folds are cache resident"
        )
        rows_per_group = profile.rows / max(1, profile.estimated_groups)
        if rows_per_group > CONTENTION_ROWS_PER_GROUP:
            reasons.append(
                f"~{rows_per_group:.0f} rows per group: global atomics "
                "serialize on hot accumulators; partitioned folds avoid them"
            )
            return Recommendation("PART-AGG", reasons)
        if profile.zipf_factor > 1.0:
            reasons.append(
                "skewed keys contend on hot global accumulators; "
                "partitioned folds avoid global atomics"
            )
            return Recommendation("PART-AGG", reasons)
        return Recommendation("HASH-AGG", reasons)
    reasons.append(
        f"accumulator table ~{table_bytes} B exceeds L2 ({device.l2_bytes} B): "
        "each fold is a latency-bound random access"
    )
    reasons.append(
        "partitioning makes folds sequential at ~2 radix passes per column "
        "(sorting would need ~4)"
    )
    return Recommendation("PART-AGG", reasons)


def resolve_groupby_algorithm(
    algorithm: str,
    keys: np.ndarray,
    device: DeviceSpec = A100,
    zipf_factor: float = 0.0,
) -> Recommendation:
    """The one resolver of a group-by's strategy name.

    An explicit name passes through; ``"auto"`` profiles the *global*
    keys (row count, estimated cardinality, the ``zipf_factor`` hint)
    and asks :func:`recommend_groupby_algorithm`, so every execution
    mode and the fused pipeline pick the same strategy.

    >>> import numpy as np
    >>> resolve_groupby_algorithm("auto", np.arange(64).repeat(4)).algorithm
    'HASH-AGG'
    >>> resolve_groupby_algorithm("SORT-AGG", np.arange(64)).algorithm
    'SORT-AGG'
    """
    if algorithm != "auto":
        return Recommendation(algorithm, ["requested explicitly"])
    keys = np.asarray(keys)
    profile = GroupByWorkloadProfile(
        rows=int(keys.size),
        estimated_groups=estimate_group_cardinality(keys),
        zipf_factor=zipf_factor,
    )
    return recommend_groupby_algorithm(profile, device=device)


def make_groupby_algorithm(name: str, config=None):
    """Instantiate a group-by strategy by name.

    >>> make_groupby_algorithm("PART-AGG").name
    'PART-AGG'
    """
    from .hash_groupby import HashGroupBy
    from .partitioned_groupby import PartitionedGroupBy
    from .sort_groupby import SortGroupBy

    factories = {
        "HASH-AGG": lambda: HashGroupBy(config),
        "SORT-AGG": lambda: SortGroupBy(config),
        "SORT-AGG/gfur": lambda: SortGroupBy(config, pattern="gfur"),
        "PART-AGG": lambda: PartitionedGroupBy(config),
        "PART-AGG/gfur": lambda: PartitionedGroupBy(config, pattern="gfur"),
    }
    try:
        return factories[name]()
    except KeyError:
        raise KeyError(
            f"unknown aggregation algorithm {name!r}; known: {sorted(factories)}"
        ) from None
