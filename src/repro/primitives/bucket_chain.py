"""Bucket-chain radix partitioner (Sioulas et al., Section 3.2).

Partitions are chains of fixed-size, pre-allocated buckets.  Thread
blocks histogram into shared memory, then use *atomic* operations to
claim write positions and allocate new buckets — fast, but with two
properties the paper exploits to motivate its new partitioner:

``non-determinism``
    Atomics interleave differently across runs, so the intra-partition
    tuple order differs run to run.  Partitioning ``(key, col_1)`` and
    ``(key, col_2)`` independently yields inconsistent layouts, which is
    why the GFTR pattern cannot be bolted onto bucket chaining
    (Section 4.3).  We simulate this with a per-run RNG permutation of
    each partition's contents.

``fragmentation``
    Buckets are fixed size; the last bucket of each chain is partially
    empty, so the allocation exceeds the data size, and positional lookup
    into a partitioned column is not O(1).

``skew sensitivity``
    Under Zipf-skewed keys one partition's chain becomes hot; bucket
    allocation and offset atomics serialize.  The conflict factor grows
    with the hot-partition share (Figure 14's PHJ-UM blow-up).

A partitioning is two halves: :func:`bucket_chain_layout`, the keys in
layout order plus the permutation (the RNG draw included), and
:func:`charge_bucket_chain`, its one price.  The joins use only those;
:func:`bucket_chain_partition` also moves payloads through the layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..gpusim.context import GPUContext
from ..gpusim.kernel import KernelStats
from .gather import host_take
from .grouping import packed_order
from .radix_partition import Partitioned, layout_by_codes, partition_codes, plan_passes

#: Tuples per fixed-size bucket (keys + one payload column at 4 B each,
#: sized to fit comfortably in shared memory alongside the histogram).
DEFAULT_BUCKET_TUPLES = 4096

#: Atomic-contention calibration: conflict factor grows with the square
#: root of the partition-size imbalance beyond this threshold.
SKEW_CONTENTION_THRESHOLD = 2.0
SKEW_CONTENTION_COEFF = 0.35


def contention_factor(counts: np.ndarray) -> float:
    """Atomic conflict factor implied by a partition-size distribution.

    ``1.0`` for perfectly balanced partitions, growing as the hottest
    partition concentrates an outsized share of tuples.
    """
    total = int(counts.sum())
    if total == 0 or counts.size == 0:
        return 1.0
    mean = total / counts.size
    imbalance = float(counts.max()) / mean if mean > 0 else 1.0
    excess = max(0.0, imbalance - SKEW_CONTENTION_THRESHOLD)
    return 1.0 + SKEW_CONTENTION_COEFF * math.sqrt(excess)


@dataclass
class BucketChainPartitioned(Partitioned):
    """Result of a bucket-chain partitioning run."""

    bucket_tuples: int
    #: bytes reserved for bucket chains (>= data bytes: fragmentation)
    allocated_bytes: int
    used_bytes: int
    #: conflict factor charged for the atomics of this run
    conflict_factor: float

    @property
    def fragmentation_bytes(self) -> int:
        return self.allocated_bytes - self.used_bytes

    @property
    def buckets_per_partition(self) -> np.ndarray:
        return np.maximum(1, -(-self.counts // self.bucket_tuples))


def bucket_chain_layout(
    keys: np.ndarray,
    total_bits: int,
    rng: np.random.Generator,
    payload_item_bytes: int = 0,
    bucket_tuples: int = DEFAULT_BUCKET_TUPLES,
    hashed: bool = False,
) -> BucketChainPartitioned:
    """The host half of :func:`bucket_chain_partition`, charging nothing.

    Partitions in ascending id, each in a *run-dependent* order drawn
    from *rng* (the context RNG), in chains of tuples of a key and
    *payload_item_bytes*; pair it with :func:`charge_bucket_chain`.
    """
    codes = partition_codes(keys, total_bits, hashed=hashed)
    # Random tie-breaker models the unpredictable atomic completion order.
    order = packed_order(codes, rng.random(keys.size))
    part = layout_by_codes(keys, codes, order, total_bits, hashed)
    tuple_bytes = int(keys.dtype.itemsize) + payload_item_bytes
    # Every partition gets an initial bucket up front (Section 3.2), then
    # one bucket per further `bucket_tuples` tuples.
    buckets = int(np.maximum(1, -(-part.counts // bucket_tuples)).sum())
    return BucketChainPartitioned(
        **vars(part),
        bucket_tuples=bucket_tuples,
        allocated_bytes=buckets * bucket_tuples * tuple_bytes,
        used_bytes=int(keys.size) * tuple_bytes,
        conflict_factor=contention_factor(part.counts),
    )


def charge_bucket_chain(
    ctx: GPUContext,
    part: BucketChainPartitioned,
    payload_bytes: int,
    phase: Optional[str] = None,
    label: str = "",
) -> None:
    """Charge a :func:`bucket_chain_partition` call without moving data,
    *payload_bytes* of payloads travelling with the keys."""
    n = int(part.keys.size)
    key_bytes = int(part.keys.nbytes)
    atomics = n + int(part.buckets_per_partition.sum())
    pass_plan = plan_passes(part.total_bits)
    ctx.count("partition_passes", len(pass_plan))
    for _, num_bits in pass_plan:
        ctx.submit(
            KernelStats(
                name=f"bucket_chain:{label}" if label else "bucket_chain",
                items=n,
                seq_read_bytes=2 * key_bytes + payload_bytes,
                seq_write_bytes=key_bytes + payload_bytes,
                atomic_ops=atomics,
                atomic_conflict_factor=part.conflict_factor,
            ),
            phase=phase,
            num_bits=num_bits,
        )


def bucket_chain_partition(
    ctx: GPUContext,
    keys: np.ndarray,
    payloads: Sequence[np.ndarray],
    total_bits: int,
    bucket_tuples: int = DEFAULT_BUCKET_TUPLES,
    phase: Optional[str] = None,
    hashed: bool = False,
    label: str = "",
) -> BucketChainPartitioned:
    """Partition with bucket chains into ``2**total_bits`` partitions.

    Tuples land grouped by partition (ascending partition id) but in a
    *run-dependent* order within each partition, drawn from the context
    RNG — the simulated equivalent of atomic write-order races.
    """
    part = bucket_chain_layout(
        keys, total_bits, ctx.rng,
        sum(int(p.dtype.itemsize) for p in payloads), bucket_tuples, hashed,
    )
    order = part.order.astype(np.intp)  # taken once per payload
    part.payloads = [host_take(p, order) for p in payloads]
    charge_bucket_chain(
        ctx, part, sum(int(p.nbytes) for p in payloads), phase=phase, label=label
    )
    return part
