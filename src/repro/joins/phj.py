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
from typing import List, Optional, Tuple

import numpy as np

from ..errors import JoinConfigError
from ..gpusim.context import GPUContext
from ..gpusim.kernel import KernelStats
from ..primitives.gather import gather
from ..primitives.radix_partition import radix_partition
from ..relational.relation import Relation
from .base import (
    MATCH,
    MATERIALIZE,
    TRANSFORM,
    JoinAlgorithm,
    JoinConfig,
    init_tuple_ids,
    output_column_names,
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

    def _partition(
        self, ctx: GPUContext, rel: Relation, payloads, bits, phase, label,
        like=None,
    ):
        temp = ctx.mem.alloc((1 << bits) * 8 * 2, np.uint8, "partition_temp")
        part = radix_partition(
            ctx,
            rel.key_values,
            payloads,
            total_bits=bits,
            phase=phase,
            hashed=self.config.hashed_partitioning,
            label=label,
            like=like,
        )
        ctx.mem.free(temp)
        return part

    # -- execution -----------------------------------------------------------

    def _execute(
        self, ctx: GPUContext, r: Relation, s: Relation, unique_build_keys: bool
    ) -> List[Tuple[str, np.ndarray]]:
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
        first_payload = {}
        with ctx.phase(TRANSFORM):
            for side, rel in (("r", r), ("s", s)):
                names = rel.payload_names
                first = names[0] if names else None
                payloads = [rel.column(first)] if first else []
                part = self._partition(ctx, rel, payloads, bits, TRANSFORM, side)
                parts[side] = part
                ctx.mem.adopt(part.keys, f"part_keys_{side}")
                if first:
                    first_payload[side] = (first, ctx.mem.adopt(part.payloads[0], f"part_payload1_{side}"))

        with ctx.phase(MATCH):
            pr, ps = parts["r"], parts["s"]
            charge_load_balancing(ctx, ps.num_partitions)
            vid_r, vid_s = match_positions(pr.keys, ps.keys, unique_build_keys)
            out_key = ps.keys[vid_s]
            key_bytes = pr.keys.dtype.itemsize
            charge_hash_match(
                ctx,
                pr.counts,
                ps.counts,
                build_tuple_bytes=key_bytes,
                probe_tuple_bytes=key_bytes,
                matches=int(out_key.size),
                key_bytes=key_bytes,
                tuples_per_partition=self.config.tuples_per_partition,
                load_balanced=self.config.load_balance,
                num_execution_units=ctx.device.num_execution_units,
            )
            a_vid_r = ctx.mem.adopt(vid_r.astype(np.int32, copy=False), "match_vids_r")
            a_vid_s = ctx.mem.adopt(vid_s.astype(np.int32, copy=False), "match_vids_s")
            ctx.mem.free_by_prefix("part_keys_")

        columns: List[Tuple[str, np.ndarray]] = [("key", out_key)]
        with ctx.phase(MATERIALIZE):
            for side, source, out_name in output_column_names(r, s, self.config.projection):
                if out_name == "key":
                    continue
                rel = r if side == "r" else s
                vids = a_vid_r.data if side == "r" else a_vid_s.data
                first = first_payload.get(side)
                if first and first[0] == source:
                    transformed = first[1]
                    columns.append(
                        (out_name, gather(ctx, transformed.data, vids, phase=MATERIALIZE, label=out_name))
                    )
                    ctx.mem.free(transformed)
                    continue
                # Lazily partition this payload column with the keys
                # (Algorithm 1), discard the partitioned keys, gather.
                # The transform phase's partitioning is reused (stable
                # partitioner -> identical layout): no boundary pass,
                # and the payload gather is the only host work.
                part = self._partition(
                    ctx, rel, [rel.column(source)], bits, MATERIALIZE, out_name,
                    like=parts[side],
                )
                a_col = ctx.mem.adopt(part.payloads[0], f"part_payload_{out_name}")
                columns.append(
                    (out_name, gather(ctx, a_col.data, vids, phase=MATERIALIZE, label=out_name))
                )
                ctx.mem.free(a_col)
            # A projection may skip the eagerly transformed first payloads.
            for _, handle in first_payload.values():
                if not handle.freed:
                    ctx.mem.free(handle)
            ctx.mem.free(a_vid_r)
            ctx.mem.free(a_vid_s)
        return columns

    def _execute_gfur(self, ctx, r, s, unique_build_keys, bits):
        parts = {}
        part_ids = {}
        with ctx.phase(TRANSFORM):
            for side, rel in (("r", r), ("s", s)):
                ids = init_tuple_ids(ctx, rel.num_rows, TRANSFORM, side, dtype=rel.key_values.dtype)
                a_ids = ctx.mem.adopt(ids, f"ids_{side}")
                part = self._partition(ctx, rel, [ids], bits, TRANSFORM, side)
                ctx.mem.free(a_ids)
                parts[side] = part
                ctx.mem.adopt(part.keys, f"part_keys_{side}")
                part_ids[side] = ctx.mem.adopt(part.payloads[0], f"part_ids_{side}")

        with ctx.phase(MATCH):
            pr, ps = parts["r"], parts["s"]
            charge_load_balancing(ctx, ps.num_partitions)
            pos_r, pos_s = match_positions(pr.keys, ps.keys, unique_build_keys)
            out_key = ps.keys[pos_s]
            key_bytes = pr.keys.dtype.itemsize
            id_bytes = part_ids["r"].data.dtype.itemsize
            charge_hash_match(
                ctx,
                pr.counts,
                ps.counts,
                build_tuple_bytes=key_bytes + id_bytes,
                probe_tuple_bytes=key_bytes + id_bytes,
                matches=int(out_key.size),
                key_bytes=key_bytes,
                tuples_per_partition=self.config.tuples_per_partition,
                load_balanced=self.config.load_balance,
                num_execution_units=ctx.device.num_execution_units,
            )
            id_r = gather(ctx, part_ids["r"].data, pos_r, phase=MATCH, label="id_r")
            id_s = gather(ctx, part_ids["s"].data, pos_s, phase=MATCH, label="id_s")
            a_id_r = ctx.mem.adopt(id_r, "match_ids_r")
            a_id_s = ctx.mem.adopt(id_s, "match_ids_s")
            ctx.mem.free_by_prefix("part_keys_", "part_ids_")

        columns: List[Tuple[str, np.ndarray]] = [("key", out_key)]
        with ctx.phase(MATERIALIZE):
            for side, source, out_name in output_column_names(r, s, self.config.projection):
                if out_name == "key":
                    continue
                rel = r if side == "r" else s
                ids = a_id_r.data if side == "r" else a_id_s.data
                columns.append(
                    (out_name, gather(ctx, rel.column(source), ids, phase=MATERIALIZE, label=out_name))
                )
            ctx.mem.free(a_id_r)
            ctx.mem.free(a_id_s)
        return columns
