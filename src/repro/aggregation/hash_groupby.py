"""Hash-based grouped aggregation over a global-memory table.

The direct strategy: every row hashes its key into one global hash
table and atomically folds its value into the group's accumulator.
Performance characteristics (all emergent from the traffic model):

* **few groups** — the table fits in L2 (or even shared memory); random
  updates are cache-resident and cheap, but atomic *contention* rises as
  many rows fight over few accumulators;
* **many groups** — the table spills past L2 and every update is a
  latency-bound random DRAM access, the group-by analogue of the
  unclustered GATHER.

Each aggregate is charged as one more fold pass through the same slot
map, so adding aggregates multiplies the random traffic (the motivation
for the partitioned strategy's GFTR-style handling of wide
aggregations).  Host-side the strategy only prices: the slot map's
sectors are analysed once, and the values come from the fold of record
(:func:`~repro.aggregation.base.fold_groups`).
"""

from __future__ import annotations

import numpy as np

from ..gpusim.kernel import KernelStats
from ..primitives.hash_table import table_capacity
from ..primitives.hashing import hash_to_slots
from ..primitives.sector_analysis import analyze_indices
from .base import AGGREGATE, MATERIALIZE, GroupByAlgorithm

#: Accumulator slot width: key + one 8-byte accumulator.
SLOT_BYTES = 16


def atomic_contention(inverse: np.ndarray, num_groups: int) -> float:
    """Conflict factor of atomic folds.

    Two sources of serialization on a global accumulator table:

    * *density* — with few groups overall, a warp's 32 lanes collide on
      few slots (grows with the log of rows per group);
    * *skew* — a hot group serializes the fraction of every warp that
      lands on its accumulator (grows with the hottest group's share).
    """
    if num_groups == 0 or inverse.size == 0:
        return 1.0
    rows_per_group = inverse.size / num_groups
    density = max(0.0, np.log2(max(rows_per_group, 1.0)) - 5.0) * 0.25
    counts = np.bincount(inverse, minlength=num_groups)
    hot_share = float(counts.max()) / inverse.size
    skew = hot_share * 32 * 0.25
    return 1.0 + density + skew


#: Rows a thread block processes before merging its private table.
ROWS_PER_BLOCK = 4096


class HashGroupBy(GroupByAlgorithm):
    """Global-hash-table aggregation (scatter/atomic pattern).

    When the accumulator table fits in shared memory, each thread block
    aggregates into a *private* copy and the copies are merged at the
    end — atomics stay on-chip and contention all but disappears (the
    standard small-cardinality optimization).  Larger tables fall back
    to one global table updated with global atomics.
    """

    name = "HASH-AGG"
    pattern = "gfur"

    def _price(self, ctx, keys, values, aggregates, inverse, num_groups) -> None:
        capacity = table_capacity(num_groups, self.config.table_load_factor)
        table_bytes = capacity * SLOT_BYTES
        privatized = table_bytes <= ctx.device.shared_mem_bytes
        num_blocks = max(1, keys.size // ROWS_PER_BLOCK)

        with ctx.phase(AGGREGATE):
            table = ctx.mem.reserve(table_bytes, "agg_table")
            passes = [("hash_agg_keys", int(keys.nbytes))]
            passes += [
                (
                    f"hash_agg_fold:{spec.output_name}",
                    int(values[spec.column].nbytes) if spec.op != "count" else 0,
                )
                for spec in aggregates
            ]
            if privatized:
                # Shared-memory private tables: sequential streams plus a
                # final merge of one private table per block.
                merge_bytes = num_blocks * table_bytes
                for name, col_bytes in passes:
                    ctx.submit(
                        KernelStats(
                            name=name,
                            items=int(keys.size),
                            seq_read_bytes=col_bytes,
                            seq_write_bytes=merge_bytes // max(1, len(passes)),
                            atomic_ops=num_blocks * capacity,
                        ),
                        phase=AGGREGATE,
                    )
            else:
                slots = hash_to_slots(keys, capacity)
                slot_stats = analyze_indices(slots, SLOT_BYTES)
                conflict = atomic_contention(inverse, num_groups)
                ctx.count("hash_table_probe_slots", int(slots.size))
                for name, col_bytes in passes:
                    ctx.submit(
                        KernelStats(
                            name=name,
                            items=int(keys.size),
                            seq_read_bytes=col_bytes,
                            random_requests=slot_stats.requests,
                            random_sector_touches=slot_stats.sector_touches,
                            random_cold_sectors=slot_stats.cold_sectors,
                            locality_footprint_bytes=slot_stats.mean_warp_span_bytes,
                            atomic_ops=int(keys.size),
                            atomic_conflict_factor=conflict,
                        ),
                        phase=AGGREGATE,
                    )

        with ctx.phase(MATERIALIZE):
            # Compact the table into the dense output columns: the group
            # keys and one 8-byte column per distinct aggregate name.
            names = {spec.output_name for spec in aggregates}
            ctx.submit(
                KernelStats(
                    name="compact_groups",
                    items=num_groups,
                    seq_read_bytes=capacity * SLOT_BYTES,
                    seq_write_bytes=num_groups * (keys.itemsize + 8 * len(names)),
                ),
                phase=MATERIALIZE,
            )
            table.free()
