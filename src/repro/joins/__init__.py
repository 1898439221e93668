"""Join algorithms: the paper's four implementations plus baselines.

* :class:`SortMergeJoinUM` / :class:`SortMergeJoinOM` — Sections 3.1, 4.2
* :class:`PartitionedHashJoinUM` (bucket chains) — Section 3.2
* :class:`PartitionedHashJoin` (PHJ-OM, radix) — Section 4.3
* :class:`NonPartitionedHashJoin` (cuDF-style) — Section 5.2.2
* :class:`CPURadixJoin` (Balkesen-style baseline) — Figure 8
* :func:`recommend_join_algorithm` — the Figure 18 decision trees
* :class:`JoinPipeline` — sequences of joins (Figure 16)
"""

from ..primitives.grouping import detect_unique_keys
from .base import JoinAlgorithm, JoinConfig, JoinResult
from .cost_planner import (
    PrimitiveCalibration,
    calibrate_primitives,
    estimate_join_seconds,
    price_all,
    recommend_join_algorithm_costbased,
)
from .cpu_radix import CPURadixJoin
from .fused import FusedJoinAggregate, FusedResult
from .npj import NonPartitionedHashJoin
from .out_of_core import OutOfCoreJoin, estimate_join_footprint
from .phj import PartitionedHashJoin, derive_partition_bits
from .phj_bucket import PartitionedHashJoinUM, demonstrate_gftr_incompatibility
from .pipeline import JoinPipeline, PipelineResult
from .planner import (
    JoinWorkloadProfile,
    Recommendation,
    make_algorithm,
    planner_choice,
    recommend_join_algorithm,
    recommend_smj_variant,
)
from .smj import SortMergeJoinOM, SortMergeJoinUM

#: The paper's four principal implementations, keyed by their short names.
ALGORITHMS = {
    "SMJ-UM": SortMergeJoinUM,
    "SMJ-OM": SortMergeJoinOM,
    "PHJ-UM": PartitionedHashJoinUM,
    "PHJ-OM": PartitionedHashJoin,
}

__all__ = [
    "ALGORITHMS",
    "CPURadixJoin",
    "FusedJoinAggregate",
    "FusedResult",
    "OutOfCoreJoin",
    "estimate_join_footprint",
    "PrimitiveCalibration",
    "calibrate_primitives",
    "estimate_join_seconds",
    "price_all",
    "recommend_join_algorithm_costbased",
    "JoinAlgorithm",
    "JoinConfig",
    "JoinPipeline",
    "JoinResult",
    "JoinWorkloadProfile",
    "NonPartitionedHashJoin",
    "PartitionedHashJoin",
    "PartitionedHashJoinUM",
    "PipelineResult",
    "Recommendation",
    "demonstrate_gftr_incompatibility",
    "derive_partition_bits",
    "detect_unique_keys",
    "make_algorithm",
    "planner_choice",
    "recommend_join_algorithm",
    "recommend_smj_variant",
    "SortMergeJoinOM",
    "SortMergeJoinUM",
]
