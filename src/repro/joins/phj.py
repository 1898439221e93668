"""Partitioned hash join over stable RADIX-PARTITION (PHJ-OM, Section 4.3).

The paper's new partitioner fixes the two properties that make bucket
chaining (Section 3.2) incompatible with GFTR:

* **determinism** — RADIX-PARTITION is stable, so partitioning
  ``(key, col_1)`` and ``(key, col_2)`` independently produces mutually
  consistent layouts;
* **contiguity** — partitions are dense array ranges, so positional
  lookup into a partitioned column is O(1) and gathers are clustered.

Partition boundaries are recovered with a histogram + prefix sum, large
partitions are decomposed into sub-partitions for load balance, and each
co-partition pair is hash-joined with the build side in shared memory.

The same class supports the GFUR pattern (``pattern="gfur"``) by
partitioning ``(key, physical ID)`` instead of the payload columns —
the paper notes this flexibility makes PHJ-OM competitive on
low-match-ratio workloads too (end of Section 4.3).  Either way only
the keys move on the host; the layout's ``order`` stands in for the
partitioned IDs or payloads.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..errors import JoinConfigError
from ..gpusim.context import GPUContext
from ..gpusim.kernel import KernelStats
from ..primitives.gather import host_take
from ..primitives.radix_partition import (
    charge_radix_partition,
    grouping_bits,
    partition_layout,
)
from ..relational.relation import Relation
from .base import (
    MATCH,
    MATERIALIZE,
    TRANSFORM,
    JoinAlgorithm,
    JoinConfig,
    gfur_side_maps,
    hold_first_payload,
    reserve_tuple_ids,
)
from .matching import match_positions
from .narrow import narrow_partitioned_hash


def derive_partition_bits(
    build_rows: int, tuples_per_partition: int, forced: Optional[int] = None
) -> int:
    """Radix bits so the average build partition fits in shared memory."""
    if forced is not None:
        return forced
    if build_rows <= tuples_per_partition:
        return 1
    return min(16, max(1, math.ceil(math.log2(build_rows / tuples_per_partition))))


def charge_load_balancing(ctx: GPUContext, num_partitions: int) -> None:
    """Decompose oversized partitions into sub-partitions (tiny pass)."""
    ctx.submit(
        KernelStats(
            name="load_balance",
            items=num_partitions,
            seq_read_bytes=num_partitions * 8,
            seq_write_bytes=num_partitions * 8,
        ),
        phase=MATCH,
    )


def charge_hash_match(
    ctx: GPUContext,
    build_counts: np.ndarray,
    probe_counts: np.ndarray,
    build_tuple_bytes: int,
    probe_tuple_bytes: int,
    matches: int,
    key_bytes: int,
    tuples_per_partition: int,
    id_bytes: int = 4,
    conflict_factor: float = 1.0,
    load_balanced: bool = True,
    num_execution_units: int = 108,
) -> None:
    """Traffic of the co-partitioned hash-join kernels.

    A thread block builds a shared-memory hash table from one build-side
    sub-partition and streams the co-partition's probe side through it.
    If a build partition needs ``b`` sub-partitions, its probe side is
    re-streamed ``b`` times (block-nested-loop behaviour, Section 3.2).

    With ``load_balanced=False`` (ablation abl04) oversized probe
    partitions are *not* decomposed, so under skew one block processes a
    disproportionate share of the probe side while the rest idle; the
    idle-unit time is charged as equivalent extra streaming bytes.
    """
    build_subparts = np.maximum(1, -(-build_counts // tuples_per_partition))
    build_read = int((build_counts * build_tuple_bytes).sum())
    probe_work = probe_counts * build_subparts * probe_tuple_bytes
    probe_read = int(probe_work.sum())
    ctx.count("hash_table_probe_slots", int((probe_counts * build_subparts).sum()))
    skew_stall_bytes = 0
    if not load_balanced and probe_work.size:
        # Wall time ~ the hottest partition's work times the unit count
        # (everyone else waits); charge the excess over the balanced case.
        hottest = int(probe_work.max())
        skew_stall_bytes = max(0, hottest * num_execution_units - probe_read)
    ctx.submit(
        KernelStats(
            name="hash_match",
            items=int(build_counts.sum() + probe_counts.sum()),
            seq_read_bytes=build_read + probe_read + skew_stall_bytes,
            seq_write_bytes=matches * (key_bytes + 2 * id_bytes),
            atomic_ops=matches,
            atomic_conflict_factor=conflict_factor,
        ),
        phase=MATCH,
    )


def hash_match(ctx, pr, ps, unique_build_keys, config, tuple_bytes, tuples_per_partition):
    """Co-partitioned hash match of two partition layouts, *tuple_bytes*
    ``(build, probe)`` bytes per partitioned tuple; returns the output
    keys and the matched layout positions of each side."""
    charge_load_balancing(ctx, ps.num_partitions)
    pos_r, pos_s = match_positions(pr.keys, ps.keys, unique_build_keys, grouping_bits(pr))
    out_key = host_take(ps.keys, pos_s)
    charge_hash_match(
        ctx,
        pr.counts,
        ps.counts,
        build_tuple_bytes=tuple_bytes[0],
        probe_tuple_bytes=tuple_bytes[1],
        matches=int(out_key.size),
        key_bytes=pr.keys.dtype.itemsize,
        tuples_per_partition=tuples_per_partition,
        load_balanced=config.load_balance,
        num_execution_units=ctx.device.num_execution_units,
    )
    return out_key, pos_r, pos_s


class PartitionedHashJoin(JoinAlgorithm):
    """Radix-partitioned hash join; GFTR by default, GFUR on request."""

    name = "PHJ-OM"
    pattern = "gftr"

    def __init__(self, config: Optional[JoinConfig] = None, pattern: str = "gftr"):
        super().__init__(config)
        if pattern not in ("gftr", "gfur"):
            raise JoinConfigError(f"unknown pattern {pattern!r}")
        self.pattern = pattern
        if pattern == "gfur":
            self.name = "PHJ-OM/gfur"

    # -- helpers -----------------------------------------------------------

    def _partition(self, ctx: GPUContext, rel: Relation, bits, label, payload_bytes):
        """Partition *rel*'s keys, pricing *payload_bytes* of its tuple IDs
        (GFUR) or first payload column (GFTR) travelling with them."""
        temp = ctx.mem.reserve((1 << bits) * 8 * 2, "partition_temp")
        part = partition_layout(rel.key_values, bits, self.config.hashed_partitioning)
        charge_radix_partition(
            ctx, rel.num_rows, int(rel.key_values.nbytes), payload_bytes,
            bits, phase=TRANSFORM, label=label,
        )
        temp.free()
        return part

    # -- execution -----------------------------------------------------------

    def _execute(self, ctx: GPUContext, r: Relation, s: Relation, unique_build_keys: bool):
        bits = derive_partition_bits(
            r.num_rows, self.config.tuples_per_partition, self.config.partition_bits
        )
        if self.pattern == "gftr":
            return self._execute_gftr(ctx, r, s, unique_build_keys, bits)
        return self._execute_gfur(ctx, r, s, unique_build_keys, bits)

    def _execute_narrow(self, ctx, r, s, unique_build_keys):
        bits = derive_partition_bits(
            r.num_rows, self.config.tuples_per_partition, self.config.partition_bits
        )
        return narrow_partitioned_hash(
            ctx, r, s, unique_build_keys, self.config, bits, "radix"
        )

    def _execute_gftr(self, ctx, r, s, unique_build_keys, bits):
        parts = {}
        eager = {}
        with ctx.phase(TRANSFORM):
            for side, rel in (("r", r), ("s", s)):
                first = sum(int(rel.column(name).nbytes) for name in rel.payload_names[:1])
                parts[side] = part = self._partition(ctx, rel, bits, side, first)
                ctx.mem.adopt(part.keys, f"part_keys_{side}")
                eager[side] = hold_first_payload(ctx, rel, f"part_payload1_{side}")

        with ctx.phase(MATCH):
            pr, ps = parts["r"], parts["s"]
            key_bytes = pr.keys.dtype.itemsize
            out_key, vid_r, vid_s = hash_match(
                ctx, pr, ps, unique_build_keys, self.config, (key_bytes, key_bytes),
                self.config.tuples_per_partition,
            )
            a_vid_r = ctx.mem.adopt(vid_r.astype(np.int32, copy=False), "match_vids_r")
            a_vid_s = ctx.mem.adopt(vid_s.astype(np.int32, copy=False), "match_vids_s")
            ctx.mem.free_by_prefix("part_keys_")

        def transform(ctx, rel, column, out_name):
            # The stable partitioner reproduces the transform phase's
            # layout, so the lazy pass needs no boundary kernel.
            temp = ctx.mem.reserve((1 << bits) * 8 * 2, "partition_temp")
            charge_radix_partition(
                ctx, rel.num_rows, int(rel.key_values.nbytes), int(column.nbytes),
                bits, phase=MATERIALIZE, label=out_name, boundaries=False,
            )
            temp.free()
            return ctx.mem.reserve(column.nbytes, f"part_payload_{out_name}")

        sides = {
            "r": (a_vid_r, pr.order, eager["r"]),
            "s": (a_vid_s, ps.order, eager["s"]),
        }
        return out_key, sides, transform

    def _execute_gfur(self, ctx, r, s, unique_build_keys, bits):
        parts = {}
        held = []
        with ctx.phase(TRANSFORM):
            for side, rel in (("r", r), ("s", s)):
                ids = reserve_tuple_ids(ctx, rel, side)
                parts[side] = part = self._partition(ctx, rel, bits, side, ids.nbytes)
                ids.free()
                held.append(ctx.mem.adopt(part.keys, f"part_keys_{side}"))
                held.append(ctx.mem.reserve(ids.nbytes, f"part_ids_{side}"))

        with ctx.phase(MATCH):
            pr, ps = parts["r"], parts["s"]
            tuple_bytes = 2 * pr.keys.dtype.itemsize  # key + tuple ID
            out_key, pos_r, pos_s = hash_match(
                ctx, pr, ps, unique_build_keys, self.config, (tuple_bytes, tuple_bytes),
                self.config.tuples_per_partition,
            )
            sides = gfur_side_maps(ctx, r, s, (pr.order, ps.order), (pos_r, pos_s))
            ctx.mem.free_all(held)

        return out_key, sides, None
