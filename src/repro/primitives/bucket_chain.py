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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..gpusim.context import GPUContext
from ..gpusim.kernel import KernelStats
from .gather import host_take
from .grouping import packed_order
from .radix_partition import partition_codes, plan_passes

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
class BucketChainPartitioned:
    """Result of a bucket-chain partitioning run."""

    keys: np.ndarray
    payloads: List[np.ndarray]
    counts: np.ndarray
    offsets: np.ndarray
    total_bits: int
    hashed: bool
    bucket_tuples: int
    #: bytes reserved for bucket chains (>= data bytes: fragmentation)
    allocated_bytes: int
    used_bytes: int
    #: conflict factor charged for the atomics of this run
    conflict_factor: float

    @property
    def num_partitions(self) -> int:
        return int(self.counts.size)

    @property
    def fragmentation_bytes(self) -> int:
        return self.allocated_bytes - self.used_bytes

    @property
    def buckets_per_partition(self) -> np.ndarray:
        return np.maximum(1, -(-self.counts // self.bucket_tuples))


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
    n = int(keys.size)
    codes = partition_codes(keys, total_bits, hashed=hashed)
    # Random tie-breaker models the unpredictable atomic completion order.
    tie_breaker = ctx.rng.random(n)
    order = _partition_order(codes, tie_breaker)
    keys_out = host_take(keys, order)
    payloads_out = [host_take(p, order) for p in payloads]

    counts = np.bincount(codes, minlength=1 << total_bits).astype(np.int64)
    offsets = np.zeros_like(counts)
    np.cumsum(counts[:-1], out=offsets[1:])

    tuple_bytes = int(keys.dtype.itemsize) + sum(int(p.dtype.itemsize) for p in payloads)
    # Every partition gets an initial bucket up front (Section 3.2), then
    # one bucket per further `bucket_tuples` tuples.
    buckets = np.maximum(1, -(-counts // bucket_tuples))
    allocated = int(buckets.sum()) * bucket_tuples * tuple_bytes
    used = n * tuple_bytes

    conflict = contention_factor(counts)
    payload_bytes = sum(int(p.nbytes) for p in payloads)
    ctx.count("partition_passes", len(plan_passes(total_bits)))
    for start_bit, num_bits in plan_passes(total_bits):
        del start_bit  # traffic identical per pass
        ctx.submit(
            KernelStats(
                name=f"bucket_chain:{label}" if label else "bucket_chain",
                items=n,
                seq_read_bytes=2 * int(keys.nbytes) + payload_bytes,
                seq_write_bytes=int(keys.nbytes) + payload_bytes,
                atomic_ops=n + int(buckets.sum()),
                atomic_conflict_factor=conflict,
            ),
            phase=phase,
            num_bits=num_bits,
        )

    return BucketChainPartitioned(
        keys=keys_out,
        payloads=payloads_out,
        counts=counts,
        offsets=offsets,
        total_bits=total_bits,
        hashed=hashed,
        bucket_tuples=bucket_tuples,
        allocated_bytes=allocated,
        used_bytes=used,
        conflict_factor=conflict,
    )


def _partition_order(codes: np.ndarray, tie_breaker: np.ndarray) -> np.ndarray:
    """``np.lexsort((tie_breaker, codes))``, as one packed sort.

    :func:`~repro.primitives.grouping.packed_order` sorts one uint64
    word per row (code, top tie-breaker bits, row id) and re-sorts only
    the rows whose truncated tie-breakers tie, so the layout is the
    lexsort's whatever the tie-breaker holds.
    """
    return packed_order(codes, tie_breaker)
