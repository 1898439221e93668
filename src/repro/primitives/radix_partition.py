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
from .grouping import stable_key_order
from .hashing import mix_hash, radix_digit

#: Maximum radix bits a single invocation may use (256 partitions).
MAX_BITS_PER_PASS = 8


def partition_codes(
    keys: np.ndarray, total_bits: int, start_bit: int = 0, hashed: bool = False
) -> np.ndarray:
    """The partition number of each key for a ``total_bits`` partitioning.

    With ``hashed=True`` digits are taken from a mixed hash of the key
    instead of the raw key bits — used when keys are not uniformly
    distributed across their low bits.
    """
    base = mix_hash(keys) if hashed else keys
    return radix_digit(base, start_bit, total_bits)


def radix_partition_pass(
    ctx: GPUContext,
    keys: np.ndarray,
    payloads: Sequence[np.ndarray],
    start_bit: int,
    num_bits: int,
    phase: Optional[str] = None,
    hashed: bool = False,
    label: str = "",
) -> tuple:
    """One RADIX-PARTITION invocation (<= 8 bits).

    Returns ``(keys_out, payloads_out)`` with tuples grouped by the digit
    ``bits[start_bit : start_bit + num_bits]`` in ascending digit order,
    stably.  Charges one OneSweep-style kernel: a fused histogram read of
    the keys plus one read and one write of keys and payloads.
    """
    if num_bits > MAX_BITS_PER_PASS:
        raise ValueError(
            f"a single RADIX-PARTITION invocation supports at most "
            f"{MAX_BITS_PER_PASS} bits, got {num_bits}"
        )
    digit = partition_codes(keys, num_bits, start_bit=start_bit, hashed=hashed)
    order = np.argsort(digit, kind="stable")
    keys_out = keys[order]
    payloads_out = [p[order] for p in payloads]

    payload_bytes = sum(int(p.nbytes) for p in payloads)
    stats = KernelStats(
        name=f"radix_partition:{label}" if label else "radix_partition",
        items=int(keys.size),
        # fused histogram read of keys + read of keys & payloads
        seq_read_bytes=2 * int(keys.nbytes) + payload_bytes,
        seq_write_bytes=int(keys.nbytes) + payload_bytes,
        atomic_ops=1 << num_bits,
    )
    ctx.submit(stats, phase=phase)
    return keys_out, payloads_out


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
    #: The stable permutation that produced this layout; a later
    #: ``radix_partition(..., like=this)`` on the same keys reuses it.
    order: np.ndarray

    @property
    def num_partitions(self) -> int:
        return int(self.counts.size)


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
    """Charge a :func:`radix_partition` call without moving any data.

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


def radix_partition(
    ctx: GPUContext,
    keys: np.ndarray,
    payloads: Sequence[np.ndarray],
    total_bits: int,
    phase: Optional[str] = None,
    hashed: bool = False,
    label: str = "",
    like: Optional[Partitioned] = None,
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

    ``like`` is an earlier :class:`Partitioned` of the *same* keys with
    the same bits and hashing — Algorithm 1's lazy per-column
    transforms.  The partitioner is stable, so the layout is identical:
    the call reuses ``like``'s permutation, partitioned keys, counts and
    offsets, skips the boundary pass, and gathers only the payloads.
    The RADIX-PARTITION kernels are charged as for a full call.
    """
    if like is not None:
        if (
            like.total_bits != total_bits
            or like.hashed != hashed
            or like.keys.size != keys.size
        ):
            raise ValueError(
                "like= must be a partitioning of the same keys with the "
                "same total_bits and hashing"
            )
        order, keys_out = like.order, like.keys
        counts, offsets = like.counts, like.offsets
    else:
        codes = partition_codes(keys, total_bits, hashed=hashed)
        # codes < 2**total_bits fit in int32 for any realistic bit
        # budget, unlocking the packed fast path of stable_key_order.
        narrow = codes.astype(np.int32, copy=False) if total_bits <= 31 else codes
        order = stable_key_order(narrow)
        keys_out = keys[order]
        counts = np.bincount(codes, minlength=1 << total_bits).astype(np.int64)
        offsets = np.zeros_like(counts)
        np.cumsum(counts[:-1], out=offsets[1:])
    payloads_out = [p[order] for p in payloads]

    passes = charge_radix_partition(
        ctx,
        int(keys.size),
        int(keys.nbytes),
        sum(int(p.nbytes) for p in payloads),
        total_bits,
        phase=phase,
        label=label,
        boundaries=like is None,
    )
    return Partitioned(
        keys=keys_out,
        payloads=payloads_out,
        counts=counts,
        offsets=offsets,
        total_bits=total_bits,
        hashed=hashed,
        passes=passes,
        order=order,
    )
