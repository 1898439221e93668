"""Bucket-chain partitioned hash join — PHJ-UM (Sioulas et al., Section 3.2).

The state-of-the-art baseline the paper starts from: multi-pass radix
partitioning with bucket chains, shared-memory hash tables per
co-partition, and GFUR materialization through physical tuple IDs.

Because the bucket-chain partitioner is non-deterministic (atomic write
order) and fragmented (fixed-size buckets), the GFTR pattern cannot be
applied to it — :func:`demonstrate_gftr_incompatibility` reproduces the
failure the paper describes in Section 4.3.  The join below is correct
because the tuple IDs travel *with* their keys through the partitioner.
"""

from __future__ import annotations

import numpy as np

from ..gpusim.context import GPUContext
from ..primitives.bucket_chain import bucket_chain_partition
from ..primitives.gather import gather, host_take
from ..relational.relation import Relation
from .base import MATCH, TRANSFORM, JoinAlgorithm, init_tuple_ids
from .matching import match_positions
from .narrow import narrow_partitioned_hash
from .phj import charge_hash_match, charge_load_balancing, derive_partition_bits


class PartitionedHashJoinUM(JoinAlgorithm):
    """Partitioned hash join with bucket chains and GFUR materialization."""

    name = "PHJ-UM"
    pattern = "gfur"

    def _execute_narrow(self, ctx, r, s, unique_build_keys):
        bits = derive_partition_bits(
            r.num_rows, self.config.tuples_per_partition, self.config.partition_bits
        )
        return narrow_partitioned_hash(
            ctx, r, s, unique_build_keys, self.config, bits, "bucket"
        )

    def _execute(self, ctx: GPUContext, r: Relation, s: Relation, unique_build_keys: bool):
        bits = derive_partition_bits(
            r.num_rows, self.config.tuples_per_partition, self.config.partition_bits
        )
        parts = {}
        part_ids = {}
        fragments = []
        with ctx.phase(TRANSFORM):
            for side, rel in (("r", r), ("s", s)):
                ids = init_tuple_ids(ctx, rel.num_rows, TRANSFORM, side, dtype=rel.key_values.dtype)
                a_ids = ctx.mem.adopt(ids, f"ids_{side}")
                part = bucket_chain_partition(
                    ctx,
                    rel.key_values,
                    [ids],
                    total_bits=bits,
                    bucket_tuples=self.config.bucket_tuples,
                    phase=TRANSFORM,
                    hashed=self.config.hashed_partitioning,
                    label=side,
                )
                ctx.mem.free(a_ids)
                parts[side] = part
                # Bucket chains over-allocate: account the fragmentation.
                ctx.mem.adopt(part.keys, f"part_keys_{side}")
                part_ids[side] = ctx.mem.adopt(part.payloads[0], f"part_ids_{side}")
                if part.fragmentation_bytes > 0:
                    fragments.append(
                        ctx.mem.reserve(part.fragmentation_bytes, f"fragmentation_{side}")
                    )

        with ctx.phase(MATCH):
            pr, ps = parts["r"], parts["s"]
            charge_load_balancing(ctx, ps.num_partitions)
            pos_r, pos_s = match_positions(pr.keys, ps.keys, unique_build_keys)
            out_key = host_take(ps.keys, pos_s)
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
                tuples_per_partition=self.config.bucket_tuples,
                load_balanced=self.config.load_balance,
                num_execution_units=ctx.device.num_execution_units,
            )
            id_r = gather(ctx, part_ids["r"].data, pos_r, phase=MATCH, label="id_r")
            id_s = gather(ctx, part_ids["s"].data, pos_s, phase=MATCH, label="id_s")
            a_id_r = ctx.mem.adopt(id_r, "match_ids_r")
            a_id_s = ctx.mem.adopt(id_s, "match_ids_s")
            ctx.mem.free_by_prefix("part_keys_", "part_ids_")
            for fragment in fragments:
                fragment.free()

        return out_key, {"r": (a_id_r, None, None), "s": (a_id_s, None, None)}, None


def demonstrate_gftr_incompatibility(
    keys: np.ndarray,
    payload_1: np.ndarray,
    payload_2: np.ndarray,
    total_bits: int = 4,
    seed_a: int = 1,
    seed_b: int = 2,
) -> bool:
    """Show why GFTR cannot use the bucket-chain partitioner (Section 4.3).

    Partitions ``(key, payload_1)`` and ``(key, payload_2)`` in two
    independent runs (different atomic interleavings, simulated by
    different RNG seeds).  Returns True if the two layouts disagree —
    i.e. row i of the first partitioned column and row i of the second
    belong to *different original tuples*, which would corrupt a join
    that gathered both through the same virtual IDs.
    """
    ctx_a = GPUContext(seed=seed_a)
    ctx_b = GPUContext(seed=seed_b)
    run_a = bucket_chain_partition(ctx_a, keys, [payload_1, payload_2], total_bits)
    run_b = bucket_chain_partition(ctx_b, keys, [payload_1, payload_2], total_bits)
    # The same logical partitioning, two runs: if intra-partition order
    # differs anywhere, independently partitioned payload columns would
    # be misaligned.
    return not (
        np.array_equal(run_a.payloads[0], run_b.payloads[0])
        and np.array_equal(run_a.payloads[1], run_b.payloads[1])
    )
