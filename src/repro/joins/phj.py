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
low-match-ratio workloads too (end of Section 4.3).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..errors import JoinConfigError
from ..gpusim.context import GPUContext
from ..gpusim.kernel import KernelStats
from ..primitives.gather import gather, host_take
from ..primitives.radix_partition import (
    charge_radix_partition,
    partition_layout,
    radix_partition,
)
from ..relational.relation import Relation
from .base import (
    MATCH,
    MATERIALIZE,
    TRANSFORM,
    JoinAlgorithm,
    JoinConfig,
    hold_first_payload,
    init_tuple_ids,
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

    def _partition(self, ctx: GPUContext, rel: Relation, bits, label, ids=None):
        """Partition *rel*'s keys with its tuple *ids* (GFUR) or with its
        first payload column (GFTR).  The first payload is priced but not
        moved: :func:`~repro.joins.base.materialize` reads payloads from
        the base relation through the layout's ``order``.
        """
        temp = ctx.mem.reserve((1 << bits) * 8 * 2, "partition_temp")
        hashed = self.config.hashed_partitioning
        if ids is not None:
            part = radix_partition(
                ctx, rel.key_values, [ids], total_bits=bits,
                phase=TRANSFORM, hashed=hashed, label=label,
            )
        else:
            part = partition_layout(rel.key_values, bits, hashed)
            charge_radix_partition(
                ctx, rel.num_rows, int(rel.key_values.nbytes),
                sum(int(rel.column(name).nbytes) for name in rel.payload_names[:1]),
                bits, phase=TRANSFORM, label=label,
            )
        temp.free()
        return part

    def _hash_match(self, ctx, pr, ps, unique_build_keys, tuple_bytes):
        """Co-partitioned hash match; returns the output keys and the
        matched layout positions of each side."""
        charge_load_balancing(ctx, ps.num_partitions)
        pos_r, pos_s = match_positions(pr.keys, ps.keys, unique_build_keys)
        out_key = host_take(ps.keys, pos_s)
        charge_hash_match(
            ctx,
            pr.counts,
            ps.counts,
            build_tuple_bytes=tuple_bytes,
            probe_tuple_bytes=tuple_bytes,
            matches=int(out_key.size),
            key_bytes=pr.keys.dtype.itemsize,
            tuples_per_partition=self.config.tuples_per_partition,
            load_balanced=self.config.load_balance,
            num_execution_units=ctx.device.num_execution_units,
        )
        return out_key, pos_r, pos_s

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
                parts[side] = part = self._partition(ctx, rel, bits, side)
                ctx.mem.adopt(part.keys, f"part_keys_{side}")
                eager[side] = hold_first_payload(ctx, rel, f"part_payload1_{side}")

        with ctx.phase(MATCH):
            pr, ps = parts["r"], parts["s"]
            out_key, vid_r, vid_s = self._hash_match(
                ctx, pr, ps, unique_build_keys, pr.keys.dtype.itemsize
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
        part_ids = {}
        with ctx.phase(TRANSFORM):
            for side, rel in (("r", r), ("s", s)):
                ids = init_tuple_ids(ctx, rel.num_rows, TRANSFORM, side, dtype=rel.key_values.dtype)
                a_ids = ctx.mem.adopt(ids, f"ids_{side}")
                parts[side] = part = self._partition(ctx, rel, bits, side, ids=ids)
                ctx.mem.free(a_ids)
                ctx.mem.adopt(part.keys, f"part_keys_{side}")
                part_ids[side] = ctx.mem.adopt(part.payloads[0], f"part_ids_{side}")

        with ctx.phase(MATCH):
            pr, ps = parts["r"], parts["s"]
            id_bytes = part_ids["r"].data.dtype.itemsize
            out_key, pos_r, pos_s = self._hash_match(
                ctx, pr, ps, unique_build_keys, pr.keys.dtype.itemsize + id_bytes
            )
            id_r = gather(ctx, part_ids["r"].data, pos_r, phase=MATCH, label="id_r")
            id_s = gather(ctx, part_ids["s"].data, pos_s, phase=MATCH, label="id_s")
            a_id_r = ctx.mem.adopt(id_r, "match_ids_r")
            a_id_s = ctx.mem.adopt(id_s, "match_ids_s")
            ctx.mem.free_by_prefix("part_keys_", "part_ids_")

        return out_key, {"r": (a_id_r, None, None), "s": (a_id_s, None, None)}, None
