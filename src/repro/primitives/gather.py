"""GATHER and SCATTER primitives with traffic accounting.

``GATHER(in, map, out)`` computes ``out[i] = in[map[i]]`` (Section 2.3 of
the paper).  Whether the gather is *clustered* (map mostly monotonic,
warps touch few sectors) or *unclustered* (random map, up to 32 sectors
per warp) is not declared by the caller — it is measured from the actual
map by :mod:`repro.primitives.sector_analysis`, so the GFUR/GFTR
difference is an emergent property of the index arrays the join
algorithms produce.

Every hot host gather, charged or not, moves its data through
:func:`host_take`: one bounds check of the map, then ``np.take``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..gpusim.context import GPUContext
from ..gpusim.kernel import KernelStats
from .sector_analysis import analyze_indices


#: The unsigned view of each native integer map dtype.
_UNSIGNED = {
    np.dtype(f"{kind}{size}"): np.dtype(f"u{size}")
    for kind in "iu"
    for size in (1, 2, 4, 8)
}


def host_take(src: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``src[idx]`` for an integer map *idx*, bounds-checked once.

    Fancy indexing checks (and wraps) every index as it gathers, and
    takes a slow path for ``int32`` maps; ``np.take(mode="clip")`` does
    neither.  So the map is checked once up front, raising
    :class:`IndexError` for any index outside ``[0, len(src))`` (negative
    indices included: no hot map holds one), and the clip never fires.
    The check is one ``max`` over the map's unsigned view, where a
    negative index reads as one above every valid one.  ``np.take``
    copies a source that is not C-contiguous (a broadcast column would be
    materialized in full), so such a source, and a map of any dtype but a
    native integer one, use fancy indexing.  ``np.take`` converts an ``int32`` map to ``intp`` on
    every call: convert a map once where it is taken several times.
    """
    unsigned = _UNSIGNED.get(idx.dtype)
    if unsigned is None or not src.flags.c_contiguous:
        return src[idx]
    size = len(src)
    if idx.size and idx.view(unsigned).max() >= size:
        bad = idx.min() if idx.min() < 0 else idx.max()
        raise IndexError(f"index {bad} is out of bounds for axis 0 with size {size}")
    return src.take(idx, axis=0, mode="clip")


def _random_stats_fields(index_map: np.ndarray, element_bytes: int) -> dict:
    stats = analyze_indices(index_map, element_bytes)
    return {
        "random_requests": stats.requests,
        "random_sector_touches": stats.sector_touches,
        "random_cold_sectors": stats.cold_sectors,
        "locality_footprint_bytes": stats.mean_warp_span_bytes,
    }


def gather(
    ctx: GPUContext,
    src: np.ndarray,
    index_map: np.ndarray,
    phase: Optional[str] = None,
    label: str = "",
) -> np.ndarray:
    """Gather ``src[index_map]``, charging random-read traffic.

    The map itself is streamed sequentially; the output is written
    sequentially; the source reads are charged according to the measured
    per-warp sector counts of the map.
    """
    out = host_take(src, index_map)
    stats = KernelStats(
        name=f"gather:{label}" if label else "gather",
        items=int(index_map.size),
        seq_read_bytes=int(index_map.nbytes),
        seq_write_bytes=int(out.nbytes),
        **_random_stats_fields(index_map, src.dtype.itemsize),
    )
    ctx.submit(stats, phase=phase)
    return out


def scatter(
    ctx: GPUContext,
    src: np.ndarray,
    index_map: np.ndarray,
    out: np.ndarray,
    phase: Optional[str] = None,
    label: str = "",
) -> np.ndarray:
    """Scatter ``out[index_map[i]] = src[i]``, charging random-write traffic.

    The destination writes are random; source and map are streamed.
    Returns *out* for convenience.
    """
    if index_map.size:
        out[index_map] = src
    stats = KernelStats(
        name=f"scatter:{label}" if label else "scatter",
        items=int(index_map.size),
        seq_read_bytes=int(index_map.nbytes) + int(src.nbytes),
        **_random_stats_fields(index_map, out.dtype.itemsize),
    )
    ctx.submit(stats, phase=phase)
    return out


def gather_stats_only(
    ctx: GPUContext,
    index_map: np.ndarray,
    element_bytes: int,
    out_bytes: int,
    phase: Optional[str] = None,
    label: str = "",
) -> KernelStats:
    """Charge gather traffic without moving data; returns the stats.

    Used when an algorithm produces the gathered values another way
    (e.g. keys written during match finding, or a join reading the base
    relation) but the simulated hardware would still have performed the
    loads.  The stats depend only on the map and *element_bytes*, so a
    caller gathering several columns through one map may re-submit them
    under another name instead of re-analyzing the map.
    """
    stats = KernelStats(
        name=f"gather:{label}" if label else "gather",
        items=int(index_map.size),
        seq_read_bytes=int(index_map.nbytes),
        seq_write_bytes=int(out_bytes),
        **_random_stats_fields(index_map, element_bytes),
    )
    ctx.submit(stats, phase=phase)
    return stats
