"""SORT-PAIRS primitive: CUB-style least-significant-digit radix sort.

``SORT-PAIRS(kin, vin, kout, vout)`` sorts value arrays by their keys
(Section 2.3).  The CUB implementation is an LSD radix sort processing 8
bits per pass, so sorting 4-byte keys takes 4 passes, each reading and
writing the key and payload arrays — the "about 17 sequential passes"
the paper counts for a 4B/4B sort (Section 4.2).  Sorting is stable.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..gpusim.context import GPUContext
from ..gpusim.kernel import KernelStats
from .gather import host_take
from .grouping import stable_key_order
from .radix_partition import MAX_BITS_PER_PASS


def key_bits_for_dtype(dtype: np.dtype) -> int:
    """Radix bits CUB sorts for a key dtype (full width)."""
    return np.dtype(dtype).itemsize * 8


def sort_passes_for_dtype(dtype: np.dtype) -> int:
    """Number of LSD radix passes for a key dtype (8 bits per pass)."""
    bits = key_bits_for_dtype(dtype)
    return -(-bits // MAX_BITS_PER_PASS)


def sort_pairs(
    ctx: GPUContext,
    keys: np.ndarray,
    payloads: Sequence[np.ndarray],
    phase: Optional[str] = None,
    key_bits: Optional[int] = None,
    label: str = "",
    return_order: bool = False,
) -> tuple:
    """Stably sort *payloads* (and the keys) by *keys*.

    Returns ``(keys_sorted, payloads_sorted)`` — plus the sort
    permutation when ``return_order=True``.  Charges one kernel per
    8-bit LSD pass, each streaming the key and payload arrays once in
    and once out.
    """
    if key_bits is None:
        key_bits = key_bits_for_dtype(keys.dtype)
    passes = max(1, -(-key_bits // MAX_BITS_PER_PASS))

    order = stable_key_order(keys)
    keys_sorted = host_take(keys, order)
    payloads_sorted: List[np.ndarray] = [host_take(p, order) for p in payloads]

    payload_bytes = sum(int(p.nbytes) for p in payloads)
    per_pass_bytes = int(keys.nbytes) + payload_bytes
    stats = KernelStats(
        name=f"sort_pairs:{label}" if label else "sort_pairs",
        items=int(keys.size),
        # fused digit/histogram read + data read, then data write
        seq_read_bytes=int(keys.nbytes) + per_pass_bytes,
        seq_write_bytes=per_pass_bytes,
        atomic_ops=1 << MAX_BITS_PER_PASS,
    )
    ctx.submit_many([stats] * passes, phase=phase)
    if return_order:
        return keys_sorted, payloads_sorted, order
    return keys_sorted, payloads_sorted


def argsort_cost_only(
    ctx: GPUContext,
    num_items: int,
    key_bytes: int,
    payload_bytes_per_item: int,
    phase: Optional[str] = None,
    key_bits: Optional[int] = None,
    label: str = "",
) -> None:
    """Charge SORT-PAIRS traffic without moving data (planning helpers)."""
    if key_bits is None:
        key_bits = key_bytes * 8
    passes = max(1, -(-key_bits // MAX_BITS_PER_PASS))
    per_pass = num_items * (key_bytes + payload_bytes_per_item)
    stats = KernelStats(
        name=f"sort_pairs:{label}" if label else "sort_pairs",
        items=num_items,
        seq_read_bytes=num_items * key_bytes + per_pass,
        seq_write_bytes=per_pass,
        atomic_ops=1 << MAX_BITS_PER_PASS,
    )
    ctx.submit_many([stats] * passes, phase=phase)
