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

Host-side the strategy only prices, and the values come from the fold
of record (:func:`~repro.aggregation.base.fold_groups`).  GFTR's
partitionings are therefore charged (:func:`charge_radix_partition`,
a bytes-only reservation for the partitioned keys) and never
performed; GFUR performs its ``(key, tuple ID)`` partition, whose
permuted IDs the gathers' sector analysis reads, once per item size.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..errors import AggregationConfigError
from ..gpusim.kernel import KernelStats
from ..primitives.radix_partition import charge_radix_partition, radix_partition
from ..relational.types import id_dtype
from .base import (
    AGGREGATE,
    MATERIALIZE,
    TRANSFORM,
    GroupByAlgorithm,
    GroupByConfig,
    charge_column_folds,
    gather_through,
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

    def _price(self, ctx, keys, values, aggregates, inverse, num_groups) -> None:
        n = int(keys.size)
        # Target groups per partition: a shared-memory hash table of
        # 16-byte accumulator slots, half-loaded.
        target = self.config.tuples_per_partition or max(
            8, ctx.device.shared_mem_bytes // 32
        )
        bits = derive_groupby_bits(num_groups, target, self.config.partition_bits)

        held = []
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
                held.append(ctx.mem.reserve(int(ids.nbytes), "ids_partitioned"))
                fetch = gather_through(ctx, part.payloads[0])
            else:
                # Only the sizes set the charges, and nothing reads the
                # moved data, so GFTR prices its partitionings.
                charge_radix_partition(
                    ctx, n, int(keys.nbytes), 0, bits, phase=TRANSFORM, label="keys"
                )

                def fetch(column, label):
                    # Lazily partition (key, column) with the transform's
                    # layout; the fold streams the co-partitioned column.
                    charge_radix_partition(
                        ctx, n, int(keys.nbytes), int(column.nbytes), bits,
                        phase=MATERIALIZE, label=label, boundaries=False,
                    )
            held.append(ctx.mem.reserve(int(keys.nbytes), "keys_partitioned"))

        with ctx.phase(AGGREGATE):
            # Per-partition group discovery (shared-memory hash build):
            # one sequential pass over the partitioned keys.
            ctx.submit(
                KernelStats(
                    name="partition_groups",
                    items=n,
                    seq_read_bytes=int(keys.nbytes),
                    seq_write_bytes=num_groups * 8,
                ),
                phase=AGGREGATE,
            )

        with ctx.phase(MATERIALIZE):
            # Per-partition shared-memory folds: purely sequential streams.
            charge_column_folds(ctx, n, values, aggregates, num_groups, "fold", fetch)
            for reservation in held:
                reservation.free()
