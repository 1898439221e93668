"""Sector analysis of gather/scatter index arrays (exact and sampled).

On Ampere GPUs, a warp's 32 loads are combined into memory transactions
of 32-byte *sectors*.  The number of distinct sectors a warp touches is
what Nsight Compute reports as "sectors per request" (Table 4 of the
paper) and is the physical quantity that separates clustered from
unclustered GATHERs.  This module computes it from the actual index
arrays the algorithms produce — the GFUR/GFTR difference stays an
emergent property of the maps, never a declared label.

Two accounting modes exist:

``exact``
    The original warp-by-warp analysis: reshape into 32-lane warps, sort
    each warp's sector ids, count distinct runs, and count the globally
    distinct sectors.  O(n log 32) per map — accurate but it dominates
    bench wall-clock at paper scale (2^27 tuples).

``sampled``
    A deterministic stride sample of at most :data:`SAMPLE_WARPS` full
    warps is analyzed exactly and scaled to the full map; the globally
    distinct ("cold") sector count uses the closed-form occupancy
    estimate ``R * (1 - (1 - 1/R)^n)`` over the map's sector range.
    O(sample) per map, within a few percent of exact on the access
    patterns the join/group-by algorithms produce (see
    ``tests/primitives/test_sector_equivalence.py`` for the asserted
    error bands).

The mode is selected with :func:`set_sector_mode` or the
``REPRO_SECTOR_MODE`` environment variable (``auto`` / ``exact`` /
``sampled``).  ``auto`` — the default — uses exact analysis below
:data:`AUTO_EXACT_THRESHOLD` indices and sampling above it, so
small-scale tests and smoke runs keep bit-identical accounting while
native-scale benches get the fast path.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from ..gpusim.device import SECTOR_BYTES, WARP_SIZE

#: Index-count threshold at which ``auto`` mode switches to sampling.
#: Sits above the default bench scale (2^27 * 2^-9 = 2^18 indices), so
#: every committed bench_results artifact keeps bit-identical exact
#: accounting; only native-scale runs (2^21 and up) sample.
AUTO_EXACT_THRESHOLD = 1 << 20

#: Maximum number of full warps analyzed exactly in sampled mode.
SAMPLE_WARPS = 2048

_VALID_MODES = ("auto", "exact", "sampled")

_mode = os.environ.get("REPRO_SECTOR_MODE", "auto").strip().lower() or "auto"
if _mode not in _VALID_MODES:
    raise ValueError(
        f"REPRO_SECTOR_MODE must be one of {_VALID_MODES}, got {_mode!r}"
    )


def set_sector_mode(mode: str) -> str:
    """Select the sector-accounting mode; returns the previous mode."""
    global _mode
    if mode not in _VALID_MODES:
        raise ValueError(f"sector mode must be one of {_VALID_MODES}, got {mode!r}")
    previous = _mode
    _mode = mode
    return previous


def get_sector_mode() -> str:
    """The currently selected sector-accounting mode."""
    return _mode


@dataclass(frozen=True)
class SectorStats:
    """Warp-level random-access statistics of an index array.

    Attributes
    ----------
    requests:
        Number of warp-level load/store requests (one per warp).
    sector_touches:
        Sum over warps of the number of distinct sectors the warp touches.
    cold_sectors:
        Number of globally distinct sectors touched by the whole map; the
        first touch of each must be served by DRAM regardless of locality.
    mean_warp_span_bytes:
        Mean over warps of (max byte address - min byte address + element
        size); the cost model compares this against the L2 capacity to
        decide whether repeated touches stay cache resident.
    """

    requests: int
    sector_touches: int
    cold_sectors: int
    mean_warp_span_bytes: float

    @property
    def sectors_per_request(self) -> float:
        if not self.requests:
            return 0.0
        return self.sector_touches / self.requests


def analyze_indices(indices: np.ndarray, element_bytes: int) -> SectorStats:
    """Compute :class:`SectorStats` for gathering elements at *indices*.

    ``indices`` are element positions into a source array whose elements
    are ``element_bytes`` wide (the source is assumed element-aligned, so
    a 4- or 8-byte element never crosses a 32-byte sector boundary).
    Dispatches to exact or sampled analysis per the current mode.
    """
    n = int(indices.size)
    if n == 0:
        return SectorStats(0, 0, 0, 0.0)
    if element_bytes <= 0 or element_bytes > SECTOR_BYTES:
        raise ValueError(f"unsupported element size {element_bytes}")
    if _mode == "exact" or (_mode == "auto" and n < AUTO_EXACT_THRESHOLD):
        return _analyze_exact(indices, element_bytes)
    return _analyze_sampled(indices, element_bytes)


def _analyze_exact(indices: np.ndarray, element_bytes: int) -> SectorStats:
    """One int64 copy of the map, worked in place: byte offsets give the
    per-warp spans, become sector ids, are sorted per warp for the
    per-warp distinct counts, then sorted whole for the global one."""
    n = int(indices.size)
    # Pad the final partial warp by repeating its last entry so it adds no
    # spurious distinct sectors or span.
    sectors = np.empty(n + (-n) % WARP_SIZE, dtype=np.int64)
    sectors[:n] = indices
    sectors[n:] = sectors[n - 1]
    sectors *= element_bytes
    warps = sectors.reshape(-1, WARP_SIZE)
    spans = (warps.max(axis=1) - warps.min(axis=1) + element_bytes).astype(np.float64)

    sectors //= SECTOR_BYTES
    warps.sort(axis=1)
    requests = warps.shape[0]
    distinct = requests + int(np.count_nonzero(warps[:, 1:] != warps[:, :-1]))

    # Globally distinct sectors via sort + boundary count — same integer
    # as np.unique(sectors).size without the hash-based unique pass.  The
    # per-warp sort leaves the multiset of sector ids as it was.
    sectors.sort(kind="quicksort")
    cold = 1 + int(np.count_nonzero(sectors[1:] != sectors[:-1]))

    return SectorStats(
        requests=requests,
        sector_touches=distinct,
        cold_sectors=cold,
        mean_warp_span_bytes=float(spans.mean()),
    )


def _analyze_sampled(indices: np.ndarray, element_bytes: int) -> SectorStats:
    n = int(indices.size)
    requests = -(-n // WARP_SIZE)
    full_warps = n // WARP_SIZE
    if full_warps == 0:
        # Fewer than 32 indices: sampling buys nothing, analyze exactly.
        return _analyze_exact(indices, element_bytes)

    # Deterministic stride sample of full warps: exact per-warp analysis
    # on the sample, scaled to the whole map.  The sample is a strided
    # view of the warp-shaped map, so only the sampled lanes are copied —
    # no O(n) transform of the full index array.
    stride = max(1, full_warps // SAMPLE_WARPS)
    warps = indices[: full_warps * WARP_SIZE].reshape(-1, WARP_SIZE)
    warp_offsets = np.sort(
        warps[::stride].astype(np.int64) * element_bytes, axis=1
    )
    # Floor division is monotone, so sorted offsets give sorted sectors,
    # and each warp's span is its last offset minus its first.
    warp_sectors = warp_offsets // SECTOR_BYTES

    sampled = warp_sectors.shape[0]
    distinct = sampled + int(
        np.count_nonzero(warp_sectors[:, 1:] != warp_sectors[:, :-1])
    )
    spans = (
        warp_offsets[:, -1] - warp_offsets[:, 0] + element_bytes
    ).astype(np.float64)

    sector_touches = int(round(distinct / sampled * requests))
    sector_touches = min(max(sector_touches, requests), requests * WARP_SIZE)

    # Cold sectors: occupancy of the map's sector range under n draws.
    # E[distinct] = R * (1 - (1 - 1/R)^n), computed in log space.  The
    # range comes from exact min/max reductions over the full map
    # (allocation-free); floor division commutes with min/max for a
    # positive element size.
    lo, hi = _index_range(indices)
    lo = lo * element_bytes // SECTOR_BYTES
    hi = hi * element_bytes // SECTOR_BYTES
    sector_range = hi - lo + 1
    if sector_range <= 1:
        cold = 1
    else:
        occupied = sector_range * -math.expm1(n * math.log1p(-1.0 / sector_range))
        cold = max(1, int(round(occupied)))
    cold = min(cold, sector_touches)

    return SectorStats(
        requests=requests,
        sector_touches=sector_touches,
        cold_sectors=cold,
        mean_warp_span_bytes=float(spans.mean()),
    )


#: Elements per block of :func:`_index_range`: 512 KiB of int64, so the
#: max pass re-reads a block the min pass just left in L2.
_RANGE_BLOCK = 1 << 16


def _index_range(indices: np.ndarray) -> tuple[int, int]:
    """Exact ``(min, max)`` of *indices* in one sweep over memory.

    Two whole-array reductions would stream a large map from memory
    twice; taking both per cache-sized block streams it once.
    """
    lo = hi = int(indices[0])
    for start in range(0, indices.size, _RANGE_BLOCK):
        block = indices[start : start + _RANGE_BLOCK]
        lo = min(lo, int(block.min()))
        hi = max(hi, int(block.max()))
    return lo, hi


def sequential_stats(num_items: int, element_bytes: int) -> SectorStats:
    """Stats of a perfectly sequential access of *num_items* elements.

    Provided for reference and tests; a sequential stream touches
    ``element_bytes / SECTOR_BYTES`` sectors per element, all cold, with a
    one-warp span.
    """
    if num_items == 0:
        return SectorStats(0, 0, 0, 0.0)
    requests = -(-num_items // WARP_SIZE)
    total_bytes = num_items * element_bytes
    sectors = -(-total_bytes // SECTOR_BYTES)
    per_warp_span = min(num_items, WARP_SIZE) * element_bytes
    return SectorStats(
        requests=requests,
        sector_touches=sectors,
        cold_sectors=sectors,
        mean_warp_span_bytes=float(per_warp_span),
    )
