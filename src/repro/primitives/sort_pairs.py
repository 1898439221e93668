"""SORT-PAIRS primitive: CUB-style least-significant-digit radix sort.

``SORT-PAIRS(kin, vin, kout, vout)`` sorts value arrays by their keys
(Section 2.3).  The CUB implementation is an LSD radix sort processing 8
bits per pass, so sorting 4-byte keys takes 4 passes, each reading and
writing the key and payload arrays — the "about 17 sequential passes"
the paper counts for a 4B/4B sort (Section 4.2).  Sorting is stable.

A sort is two halves: :func:`sort_layout`, the keys in sorted order
plus the permutation, and :func:`argsort_cost_only`, its one price.
The joins and group-bys use only those; :func:`sort_pairs` also moves
payloads through the layout.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..gpusim.context import GPUContext
from ..gpusim.kernel import KernelStats
from ..relational.types import id_dtype
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


def sort_layout(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The host half of :func:`sort_pairs`, charging nothing: the keys
    in stable sorted order and the permutation that sorts them, at the
    input's :func:`~repro.relational.types.id_dtype`.  A caller pricing
    payloads that travel with the keys pairs this with
    :func:`argsort_cost_only`."""
    order = stable_key_order(keys)
    return host_take(keys, order), order.astype(id_dtype(keys.size))


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
    permutation when ``return_order=True``: :func:`sort_layout` with the
    payloads moved through it, charged by :func:`argsort_cost_only`.
    """
    keys_sorted, order = sort_layout(keys)
    taken = order.astype(np.intp)  # taken once per payload
    payloads_sorted: List[np.ndarray] = [host_take(p, taken) for p in payloads]
    argsort_cost_only(
        ctx, int(keys.size), keys.dtype.itemsize,
        sum(p.dtype.itemsize for p in payloads),
        phase=phase, key_bits=key_bits, label=label,
    )
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
    """Charge SORT-PAIRS without moving data: one kernel per 8-bit LSD
    pass, each streaming the keys and payloads once in and once out."""
    if key_bits is None:
        key_bits = key_bytes * 8
    passes = max(1, -(-key_bits // MAX_BITS_PER_PASS))
    per_pass = num_items * (key_bytes + payload_bytes_per_item)
    stats = KernelStats(
        name=f"sort_pairs:{label}" if label else "sort_pairs",
        items=num_items,
        # fused digit/histogram read + data read, then data write
        seq_read_bytes=num_items * key_bytes + per_pass,
        seq_write_bytes=per_pass,
        atomic_ops=1 << MAX_BITS_PER_PASS,
    )
    ctx.submit_many([stats] * passes, phase=phase)
