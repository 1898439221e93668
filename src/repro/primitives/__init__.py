"""High-performance GPU primitives (Section 2.3 of the paper), simulated.

RADIX-PARTITION, SORT-PAIRS, GATHER/SCATTER, Merge Path, histograms and
prefix sums, plus the Sioulas-style bucket-chain partitioner the paper's
PHJ-UM baseline uses.  All primitives execute real numpy data movement
and submit measured traffic to the owning :class:`~repro.gpusim.GPUContext`.
"""

from .bucket_chain import (
    DEFAULT_BUCKET_TUPLES,
    BucketChainPartitioned,
    bucket_chain_partition,
    contention_factor,
)
from .gather import gather, gather_stats_only, scatter
from .hashing import hash_to_slots, mix_hash, multiplicative_hash, radix_digit
from .histogram import exclusive_scan, histogram
from .merge_path import lower_bounds, match_bounds, upper_bounds
from .radix_partition import (
    MAX_BITS_PER_PASS,
    Partitioned,
    partition_codes,
    plan_passes,
    radix_partition,
)
from .grouping import (
    count_distinct,
    distinct_sorted,
    group_identify,
    groups_from_sorted,
    stable_key_order,
)
from .sector_analysis import (
    SectorStats,
    analyze_indices,
    get_sector_mode,
    sequential_stats,
    set_sector_mode,
)
from .sort_pairs import (
    argsort_cost_only,
    key_bits_for_dtype,
    sort_pairs,
    sort_passes_for_dtype,
)

__all__ = [
    "BucketChainPartitioned",
    "DEFAULT_BUCKET_TUPLES",
    "MAX_BITS_PER_PASS",
    "Partitioned",
    "SectorStats",
    "analyze_indices",
    "argsort_cost_only",
    "bucket_chain_partition",
    "contention_factor",
    "count_distinct",
    "distinct_sorted",
    "exclusive_scan",
    "gather",
    "gather_stats_only",
    "get_sector_mode",
    "group_identify",
    "groups_from_sorted",
    "hash_to_slots",
    "histogram",
    "key_bits_for_dtype",
    "lower_bounds",
    "match_bounds",
    "mix_hash",
    "multiplicative_hash",
    "partition_codes",
    "plan_passes",
    "radix_digit",
    "radix_partition",
    "scatter",
    "sequential_stats",
    "set_sector_mode",
    "sort_pairs",
    "sort_passes_for_dtype",
    "stable_key_order",
    "upper_bounds",
]
