"""repro.tier — heterogeneous segment cache with CPU+GPU co-execution.

Relations are split into fixed-size column segments
(:class:`SegmentedRelation`); a :class:`SegmentCache` keeps the hot ones
resident in simulated device memory as bytes-only reservations (the
tier keeps metadata, not data: no segment is copied); a cost-based
:class:`PlacementPolicy` decides placement from per-segment access
history and the serving layer's template popularity; and a
:class:`TieredRuntime` prices join and group-by operators as a GPU
part over resident segments plus a CPU part over cold ones, with the
values computed once by the single-device code.
"""

from .cache import SegmentCache
from .costmodel import TierCostModel
from .executor import DEFAULT_SEGMENT_ROWS, TieredRuntime
from .policy import PlacementPolicy, SegmentStats
from .segments import SegmentedRelation, SegmentKey

__all__ = [
    "DEFAULT_SEGMENT_ROWS",
    "PlacementPolicy",
    "SegmentCache",
    "SegmentKey",
    "SegmentStats",
    "SegmentedRelation",
    "TierCostModel",
    "TieredRuntime",
]
