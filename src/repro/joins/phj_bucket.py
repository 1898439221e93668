"""Bucket-chain partitioned hash join — PHJ-UM (Sioulas et al., Section 3.2).

The state-of-the-art baseline the paper starts from: multi-pass radix
partitioning with bucket chains, shared-memory hash tables per
co-partition, and GFUR materialization through physical tuple IDs.

Because the bucket-chain partitioner is non-deterministic (atomic write
order) and fragmented (fixed-size buckets), the GFTR pattern cannot be
applied to it — :func:`demonstrate_gftr_incompatibility` reproduces the
failure the paper describes in Section 4.3.  The join below is correct
because the tuple IDs travel *with* their keys through the partitioner;
on the host they are the layout's ``order``, and only the keys move.
"""

from __future__ import annotations

import numpy as np

from ..gpusim.context import GPUContext
from ..primitives.bucket_chain import (
    bucket_chain_layout,
    bucket_chain_partition,
    charge_bucket_chain,
)
from ..relational.relation import Relation
from .base import MATCH, TRANSFORM, JoinAlgorithm, gfur_side_maps, reserve_tuple_ids
from .narrow import narrow_partitioned_hash
from .phj import derive_partition_bits, hash_match


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
        held = []
        with ctx.phase(TRANSFORM):
            for side, rel in (("r", r), ("s", s)):
                ids = reserve_tuple_ids(ctx, rel, side)
                parts[side] = part = bucket_chain_layout(
                    rel.key_values, bits, ctx.rng,
                    payload_item_bytes=rel.key_values.dtype.itemsize,
                    bucket_tuples=self.config.bucket_tuples,
                    hashed=self.config.hashed_partitioning,
                )
                charge_bucket_chain(ctx, part, ids.nbytes, phase=TRANSFORM, label=side)
                ids.free()
                held.append(ctx.mem.adopt(part.keys, f"part_keys_{side}"))
                held.append(ctx.mem.reserve(ids.nbytes, f"part_ids_{side}"))
                # Bucket chains over-allocate: account the fragmentation.
                if part.fragmentation_bytes > 0:
                    held.append(
                        ctx.mem.reserve(part.fragmentation_bytes, f"fragmentation_{side}")
                    )

        with ctx.phase(MATCH):
            pr, ps = parts["r"], parts["s"]
            tuple_bytes = 2 * pr.keys.dtype.itemsize  # key + tuple ID
            out_key, pos_r, pos_s = hash_match(
                ctx, pr, ps, unique_build_keys, self.config, (tuple_bytes, tuple_bytes),
                self.config.bucket_tuples,
            )
            sides = gfur_side_maps(ctx, r, s, (pr.order, ps.order), (pos_r, pos_s))
            ctx.mem.free_all(held)

        return out_key, sides, None


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
