"""Partitioned grouped aggregation — the group-by analogue of PHJ-OM.

Radix-partition the rows on (hashed) key bits so that each partition's
distinct groups fit in a shared-memory hash table, then aggregate each
partition with sequential streams.  Like PHJ-OM, the partitioner is the
stable RADIX-PARTITION primitive, so the GFTR pattern applies: each
value column can be partitioned lazily *with* the keys and folded by a
sequential per-partition pass — no unclustered gathers, no global
atomics, robust to both skew and high group cardinality.

``pattern="gfur"`` instead partitions ``(key, tuple ID)`` and fetches
value columns through the permuted IDs (unclustered), mirroring the
join study's baseline pattern for ablation.

Host-side, every pattern computes its values with the one fold of
record (``segmented_aggregate`` in row order).  GFTR's partitionings
are therefore priced (:func:`charge_radix_partition`, a bytes-only
reservation for the partitioned keys) and never performed; GFUR
performs its ``(key, tuple ID)`` partition, whose permuted IDs the
gather's sector analysis reads.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Dict, List, Optional

import numpy as np

from ..errors import AggregationConfigError
from ..gpusim.context import GPUContext
from ..gpusim.kernel import KernelStats
from ..primitives.gather import gather_stats_only
from ..primitives.grouping import group_identify
from ..primitives.radix_partition import charge_radix_partition, radix_partition
from ..relational.types import id_dtype
from .base import (
    AGGREGATE,
    MATERIALIZE,
    TRANSFORM,
    AggSpec,
    GroupByAlgorithm,
    GroupByConfig,
    segmented_aggregate,
)


def derive_groupby_bits(
    estimated_groups: int, tuples_per_partition: int, forced: Optional[int] = None
) -> int:
    """Radix bits so each partition's group table fits shared memory."""
    if forced is not None:
        return forced
    if estimated_groups <= tuples_per_partition:
        return 1
    return min(16, max(1, math.ceil(math.log2(estimated_groups / tuples_per_partition))))


class PartitionedGroupBy(GroupByAlgorithm):
    """RADIX-PARTITION + per-partition shared-memory aggregation."""

    name = "PART-AGG"
    pattern = "gftr"

    def __init__(self, config: Optional[GroupByConfig] = None, pattern: str = "gftr"):
        super().__init__(config)
        if pattern not in ("gftr", "gfur"):
            raise AggregationConfigError(f"unknown pattern {pattern!r}")
        self.pattern = pattern
        self.name = "PART-AGG" if pattern == "gftr" else "PART-AGG/gfur"

    def _charge_partition_fold(
        self, ctx: GPUContext, rows: int, value_bytes: int, out_bytes: int, name: str, phase: str
    ) -> None:
        """Per-partition shared-memory fold: purely sequential streams."""
        ctx.submit(
            KernelStats(
                name=name,
                items=rows,
                seq_read_bytes=value_bytes,
                seq_write_bytes=out_bytes,
            ),
            phase=phase,
        )

    def _execute(
        self,
        ctx: GPUContext,
        keys: np.ndarray,
        values: Dict[str, np.ndarray],
        aggregates: List[AggSpec],
    ) -> "OrderedDict[str, np.ndarray]":
        n = int(keys.size)
        group_keys, inverse = group_identify(keys)
        num_groups = int(group_keys.size)
        # Target groups per partition: a shared-memory hash table of
        # 16-byte accumulator slots, half-loaded.
        target = self.config.tuples_per_partition or max(
            8, ctx.device.shared_mem_bytes // 32
        )
        bits = derive_groupby_bits(num_groups, target, self.config.partition_bits)

        id_map = None
        with ctx.phase(TRANSFORM):
            if self.pattern == "gfur":
                ids = np.arange(n, dtype=id_dtype(n))
                ctx.submit(
                    KernelStats(name="init_ids", items=n, seq_write_bytes=int(ids.nbytes)),
                    phase=TRANSFORM,
                )
                part = radix_partition(
                    ctx, keys, [ids], bits, phase=TRANSFORM,
                    hashed=self.config.hashed_partitioning, label="keys+ids",
                )
                id_map = ctx.mem.adopt(part.payloads[0], "ids_partitioned")
            else:
                # The folds compute their values in row order, so GFTR
                # only prices its partitionings: the charges depend on
                # sizes alone, and nothing reads the moved data.
                charge_radix_partition(
                    ctx, n, int(keys.nbytes), 0, bits, phase=TRANSFORM, label="keys"
                )
            a_keys = ctx.mem.reserve(int(keys.nbytes), "keys_partitioned")

        output: "OrderedDict[str, np.ndarray]" = OrderedDict()
        output["group_key"] = group_keys

        with ctx.phase(AGGREGATE):
            # Per-partition group discovery (shared-memory hash build):
            # one sequential pass over the partitioned keys.
            self._charge_partition_fold(
                ctx, n, int(keys.nbytes), num_groups * 8, "partition_groups", AGGREGATE
            )

        with ctx.phase(MATERIALIZE):
            for spec in aggregates:
                if spec.op == "count":
                    output[spec.output_name] = segmented_aggregate(
                        inverse, num_groups, None, "count"
                    )
                    self._charge_partition_fold(
                        ctx, n, 0, num_groups * 8, f"fold:{spec.output_name}", MATERIALIZE
                    )
                    continue
                column = values[spec.column]
                if self.pattern == "gfur":
                    # Unclustered gather through partitioned IDs, then fold.
                    gather_stats_only(
                        ctx, id_map.data, column.dtype.itemsize, int(column.nbytes),
                        phase=MATERIALIZE, label=spec.column,
                    )
                else:
                    # GFTR: lazily partition (key, column) with the transform
                    # phase's layout; the fold then streams the
                    # co-partitioned column sequentially.
                    charge_radix_partition(
                        ctx, n, int(keys.nbytes), int(column.nbytes), bits,
                        phase=MATERIALIZE, label=spec.column, boundaries=False,
                    )
                output[spec.output_name] = segmented_aggregate(
                    inverse, num_groups, column, spec.op
                )
                self._charge_partition_fold(
                    ctx,
                    n,
                    int(column.nbytes),
                    num_groups * 8,
                    f"fold:{spec.output_name}",
                    MATERIALIZE,
                )
            a_keys.free()
            if id_map is not None:
                ctx.mem.free(id_map)
        return output
