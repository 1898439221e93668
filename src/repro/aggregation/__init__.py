"""Grouped aggregation strategies (the SIGMOD 2025 extension scope)."""

from .base import (
    AggSpec,
    GroupByAlgorithm,
    GroupByConfig,
    GroupByResult,
    fold_groups,
)
from .hash_groupby import HashGroupBy, atomic_contention
from .partitioned_groupby import PartitionedGroupBy, derive_groupby_bits
from .planner import (
    GroupByWorkloadProfile,
    make_groupby_algorithm,
    recommend_groupby_algorithm,
)
from .out_of_core import OutOfCoreGroupBy, estimate_groupby_footprint
from .sort_groupby import SortGroupBy

#: The three principal strategies, keyed by their short names.
GROUPBY_ALGORITHMS = {
    "HASH-AGG": HashGroupBy,
    "SORT-AGG": SortGroupBy,
    "PART-AGG": PartitionedGroupBy,
}

__all__ = [
    "AggSpec",
    "GROUPBY_ALGORITHMS",
    "GroupByAlgorithm",
    "GroupByConfig",
    "GroupByResult",
    "GroupByWorkloadProfile",
    "HashGroupBy",
    "OutOfCoreGroupBy",
    "PartitionedGroupBy",
    "SortGroupBy",
    "estimate_groupby_footprint",
    "atomic_contention",
    "derive_groupby_bits",
    "fold_groups",
    "make_groupby_algorithm",
    "recommend_groupby_algorithm",
]
