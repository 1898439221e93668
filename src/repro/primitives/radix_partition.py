"""Stable RADIX-PARTITION primitive (Section 2.3 / 4.3 of the paper).

One invocation partitions key/value arrays on up to 8 radix bits (256
partitions — the Ampere limit the paper cites), storing partitions
consecutively with no fragmentation.  The partitioning is *stable*
(OneSweep radix-sort building block): equal digits preserve input order,
which is the property that makes the GFTR pattern correct — partitioning
``(key, col_1)`` and ``(key, col_2)`` yields mutually consistent layouts.

Multiple invocations compose LSD-style: after partitioning on bits
``[0, 8)`` and then ``[8, 16)``, tuples are grouped by their full 16-bit
digit, with partitions stored in ascending digit order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..gpusim.context import GPUContext
from ..gpusim.kernel import KernelStats
from ..relational.types import id_dtype
from .grouping import stable_key_order
from .gather import host_take
from .hashing import hashed_digit, radix_digit

#: Maximum radix bits a single invocation may use (256 partitions).
MAX_BITS_PER_PASS = 8


def partition_codes(keys: np.ndarray, total_bits: int, hashed: bool = False) -> np.ndarray:
    """The partition number of each key for a ``total_bits`` partitioning.

    With ``hashed=True`` digits are taken from a mixed hash of the key
    instead of the raw key bits — used when keys are not uniformly
    distributed across their low bits.
    """
    digit = hashed_digit if hashed else radix_digit
    return digit(keys, 0, total_bits)


@dataclass
class Partitioned:
    """Result of a (possibly multi-pass) radix partitioning."""

    keys: np.ndarray
    payloads: List[np.ndarray]
    counts: np.ndarray  #: tuples per partition, ascending partition id
    offsets: np.ndarray  #: exclusive prefix sum of counts
    total_bits: int
    hashed: bool
    passes: int
    #: The stable permutation that produced this layout: row ``i`` of
    #: the layout is input row ``order[i]``; held at the input's
    #: :func:`~repro.relational.types.id_dtype`.
    order: np.ndarray

    @property
    def num_partitions(self) -> int:
        return int(self.counts.size)


def grouping_bits(layout) -> int:
    """The raw low key bits a partition *layout* groups keys by.

    A :class:`Partitioned` or
    :class:`~repro.primitives.bucket_chain.BucketChainPartitioned`
    layout on raw key bits holds each partition's keys together by
    their low ``total_bits`` bits; a hashed one groups them by hash
    digits, which say nothing about the keys' own bits (0).
    """
    return 0 if layout.hashed else layout.total_bits


def plan_passes(total_bits: int) -> List[tuple]:
    """Split a partitioning into LSD passes of <= 8 bits each.

    Returns ``[(start_bit, num_bits), ...]`` in execution order.
    """
    if total_bits <= 0:
        raise ValueError("total_bits must be positive")
    passes = []
    start = 0
    while start < total_bits:
        width = min(MAX_BITS_PER_PASS, total_bits - start)
        passes.append((start, width))
        start += width
    return passes


def charge_radix_partition(
    ctx: GPUContext,
    rows: int,
    key_bytes: int,
    payload_bytes: int,
    total_bits: int,
    phase: Optional[str] = None,
    label: str = "",
    boundaries: bool = True,
) -> int:
    """Charge a :func:`radix_partition` call without moving any data:
    the one price of a radix partitioning.

    Counts ``partition_passes``, submits one RADIX-PARTITION kernel per
    LSD pass and, with ``boundaries``, the histogram + exclusive-scan
    kernel whose ``counts`` and ``offsets`` are ``2**total_bits`` int64
    each.  Every charge depends only on sizes, so callers that need the
    price but never read the partitioned arrays call this alone.
    Returns the number of passes.
    """
    pass_plan = plan_passes(total_bits)
    ctx.count("partition_passes", len(pass_plan))
    name = f"radix_partition:{label}" if label else "radix_partition"
    ctx.submit_many(
        [
            KernelStats(
                name=name,
                items=rows,
                # fused histogram read of keys + read of keys & payloads
                seq_read_bytes=2 * key_bytes + payload_bytes,
                seq_write_bytes=key_bytes + payload_bytes,
                atomic_ops=1 << num_bits,
            )
            for _, num_bits in pass_plan
        ],
        phase=phase,
    )
    if boundaries:
        # Boundary computation: one extra read of keys + tiny writes.
        ctx.submit(
            KernelStats(
                name="partition_boundaries",
                items=rows,
                seq_read_bytes=key_bytes,
                seq_write_bytes=16 << total_bits,
                atomic_ops=1 << total_bits,
            ),
            phase=phase,
        )
    return len(pass_plan)


def partition_layout(
    keys: np.ndarray, total_bits: int, hashed: bool = False
) -> Partitioned:
    """The host half of :func:`radix_partition`, charging nothing.

    Returns the stable ``2**total_bits``-way layout of *keys* alone
    (``payloads`` empty); ``order`` maps it back to the input rows.  A
    caller pricing payloads that travel with the keys pairs this with
    :func:`charge_radix_partition`.
    """
    codes = partition_codes(keys, total_bits, hashed=hashed)
    return layout_by_codes(keys, codes, stable_key_order(codes), total_bits, hashed)


def layout_by_codes(
    keys: np.ndarray, codes: np.ndarray, order: np.ndarray, total_bits: int, hashed: bool
) -> Partitioned:
    """The layout of *keys* that *order* groups by their partition
    *codes*, in ascending code."""
    counts = np.bincount(codes, minlength=1 << total_bits).astype(np.int64)
    offsets = np.zeros_like(counts)
    np.cumsum(counts[:-1], out=offsets[1:])
    return Partitioned(
        keys=host_take(keys, order),
        payloads=[],
        counts=counts,
        offsets=offsets,
        total_bits=total_bits,
        hashed=hashed,
        passes=len(plan_passes(total_bits)),
        order=order.astype(id_dtype(keys.size)),
    )


def radix_partition(
    ctx: GPUContext,
    keys: np.ndarray,
    payloads: Sequence[np.ndarray],
    total_bits: int,
    phase: Optional[str] = None,
    hashed: bool = False,
    label: str = "",
) -> Partitioned:
    """Multi-pass stable radix partitioning into ``2**total_bits`` parts.

    Charges ``ceil(total_bits / 8)`` RADIX-PARTITION invocations (the
    paper uses 15-16 bits -> two invocations per column pair) and then
    computes partition boundaries with a histogram + exclusive scan,
    because the primitive itself leaves boundaries unknown (Section 4.3);
    :func:`charge_radix_partition` holds those charges.

    Host-side, the composed LSD passes are equivalent to ONE stable sort
    of the full digit (each pass is a stable sort by a sub-digit), so
    the data movement runs as a single argsort + gather — the simulated
    per-pass kernels are unchanged, the result is bit-identical.
    """
    part = partition_layout(keys, total_bits, hashed)
    order = part.order.astype(np.intp)  # taken once per payload
    part.payloads = [host_take(p, order) for p in payloads]
    charge_radix_partition(
        ctx,
        int(keys.size),
        int(keys.nbytes),
        sum(int(p.nbytes) for p in payloads),
        total_bits,
        phase=phase,
        label=label,
    )
    return part
