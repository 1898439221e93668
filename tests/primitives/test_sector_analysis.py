"""Exact sector analysis: crafted patterns and property-based invariants."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim.device import SECTOR_BYTES, WARP_SIZE
from repro.primitives.sector_analysis import (
    SectorStats,
    _analyze_exact,
    analyze_indices,
    sequential_stats,
)


class TestCraftedPatterns:
    def test_empty(self):
        stats = analyze_indices(np.empty(0, dtype=np.int64), 4)
        assert stats.requests == 0
        assert stats.sector_touches == 0
        assert stats.cold_sectors == 0

    def test_sequential_4byte_is_eight_per_warp(self):
        # 32 consecutive 4-byte elements span 128 bytes = 4 sectors.
        idx = np.arange(WARP_SIZE, dtype=np.int64)
        stats = analyze_indices(idx, 4)
        assert stats.requests == 1
        assert stats.sector_touches == 4
        assert stats.cold_sectors == 4
        assert stats.mean_warp_span_bytes == WARP_SIZE * 4

    def test_sequential_8byte_is_eight_sectors(self):
        idx = np.arange(WARP_SIZE, dtype=np.int64)
        stats = analyze_indices(idx, 8)
        assert stats.sector_touches == 8

    def test_fully_scattered_touches_32(self):
        # Elements one sector apart: every lane its own sector.
        idx = np.arange(WARP_SIZE, dtype=np.int64) * (SECTOR_BYTES // 4)
        stats = analyze_indices(idx, 4)
        assert stats.sector_touches == WARP_SIZE

    def test_same_element_repeated_is_one_sector(self):
        idx = np.zeros(WARP_SIZE, dtype=np.int64)
        stats = analyze_indices(idx, 4)
        assert stats.sector_touches == 1
        assert stats.cold_sectors == 1
        assert stats.mean_warp_span_bytes == 4

    def test_partial_warp_padded_without_extra_sectors(self):
        idx = np.array([0, 1, 2], dtype=np.int64)
        stats = analyze_indices(idx, 4)
        assert stats.requests == 1
        assert stats.sector_touches == 1  # 12 bytes within one sector

    def test_cold_counts_distinct_sectors_globally(self):
        # Two warps touching the same sector: 2 touches, 1 cold.
        idx = np.zeros(2 * WARP_SIZE, dtype=np.int64)
        stats = analyze_indices(idx, 4)
        assert stats.requests == 2
        assert stats.sector_touches == 2
        assert stats.cold_sectors == 1

    def test_random_permutation_near_32_per_warp(self):
        rng = np.random.default_rng(0)
        n = 1 << 16
        idx = rng.permutation(n).astype(np.int64)
        stats = analyze_indices(idx, 4)
        assert stats.sectors_per_request > 28  # nearly one sector per lane

    def test_sorted_map_low_sectors(self):
        # Dense sorted map: a warp's 32 indices span ~32 elements.
        rng = np.random.default_rng(0)
        idx = np.sort(rng.integers(0, 1 << 14, 1 << 14))
        stats = analyze_indices(idx, 4)
        assert stats.sectors_per_request < 8
        # Sparse sorted map: spans grow but stay far below fully random.
        sparse = np.sort(rng.integers(0, 1 << 16, 1 << 14))
        sparse_stats = analyze_indices(sparse, 4)
        assert sparse_stats.sectors_per_request < 24

    def test_unsupported_element_size(self):
        with pytest.raises(ValueError):
            analyze_indices(np.arange(4), 64)
        with pytest.raises(ValueError):
            analyze_indices(np.arange(4), 0)


class TestSequentialStats:
    def test_matches_analyze_for_arange(self):
        n = 1 << 12
        analytical = sequential_stats(n, 4)
        measured = analyze_indices(np.arange(n, dtype=np.int64), 4)
        assert analytical.requests == measured.requests
        assert analytical.sector_touches == measured.sector_touches
        assert analytical.cold_sectors == measured.cold_sectors

    def test_empty(self):
        assert sequential_stats(0, 4).requests == 0


@settings(max_examples=50, deadline=None)
@given(
    indices=st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=300),
    element_bytes=st.sampled_from([4, 8]),
)
def test_invariants(indices, element_bytes):
    idx = np.asarray(indices, dtype=np.int64)
    stats = analyze_indices(idx, element_bytes)
    warps = -(-idx.size // WARP_SIZE)
    assert stats.requests == warps
    # Each warp touches between 1 and WARP_SIZE sectors.
    assert warps <= stats.sector_touches <= warps * WARP_SIZE
    # Cold sectors bounded by touches and by the distinct index count.
    assert stats.cold_sectors <= stats.sector_touches
    assert stats.cold_sectors <= len(set(indices)) * (
        1 if element_bytes <= SECTOR_BYTES else 2
    )
    assert stats.cold_sectors >= 1
    assert stats.mean_warp_span_bytes >= element_bytes


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 10 ** 5), min_size=33, max_size=200))
def test_sorting_never_increases_touches(indices):
    idx = np.asarray(indices, dtype=np.int64)
    scattered = analyze_indices(idx, 4)
    clustered = analyze_indices(np.sort(idx), 4)
    assert clustered.sector_touches <= scattered.sector_touches + len(indices) // WARP_SIZE + 1


# -- the in-place exact analysis against its frozen former self ---------------


def _frozen_analyze_exact(indices: np.ndarray, element_bytes: int) -> SectorStats:
    """The exact analysis as it was before it worked in place: several
    int64 copies of the map held at once."""
    n = int(indices.size)
    offsets = indices.astype(np.int64, copy=False) * element_bytes
    sectors = offsets // SECTOR_BYTES
    pad = (-n) % WARP_SIZE
    if pad:
        offsets = np.concatenate([offsets, np.full(pad, offsets[-1])])
        sectors = np.concatenate([sectors, np.full(pad, sectors[-1])])
    warp_offsets = offsets.reshape(-1, WARP_SIZE)
    warp_sectors = np.sort(sectors.reshape(-1, WARP_SIZE), axis=1)
    distinct_per_warp = 1 + np.count_nonzero(np.diff(warp_sectors, axis=1), axis=1)
    spans = (
        warp_offsets.max(axis=1) - warp_offsets.min(axis=1) + element_bytes
    ).astype(np.float64)
    flat = np.sort(sectors, kind="quicksort")
    cold = 1 + int(np.count_nonzero(flat[1:] != flat[:-1]))
    return SectorStats(
        requests=warp_sectors.shape[0],
        sector_touches=int(distinct_per_warp.sum()),
        cold_sectors=cold,
        mean_warp_span_bytes=float(spans.mean()),
    )


def _maps(n: int, seed: int):
    rng = np.random.default_rng(seed)
    clustered = np.sort(rng.integers(0, 4 * n, n))
    clustered[rng.integers(0, n, n // 50)] = rng.integers(0, 4 * n, n // 50)
    yield "random", rng.integers(0, n, n)
    yield "clustered", clustered
    yield "sequential", np.arange(n)
    yield "constant", np.full(n, 7)


@pytest.mark.parametrize("n", [1, 31, 32, 33, 1000, 4099, 1 << 14])
@pytest.mark.parametrize("map_dtype", [np.int32, np.int64, np.uint32])
@pytest.mark.parametrize("element_bytes", [1, 4, 8, 32])
def test_exact_analysis_matches_frozen_copy(n, map_dtype, element_bytes):
    # n not a multiple of 32 exercises the padded final warp.
    for name, indices in _maps(n, seed=n + element_bytes):
        indices = indices.astype(map_dtype)
        got = _analyze_exact(indices, element_bytes)
        assert got == _frozen_analyze_exact(indices, element_bytes), name


@pytest.mark.parametrize("map_dtype", [np.int32, np.int64])
def test_exact_analysis_peak_bytes_per_index(map_dtype):
    """One int64 copy of the map (8 B/index) plus a boolean boundary
    mask; the frozen copy above held about 33 B/index."""
    n = 1 << 18
    indices = np.random.default_rng(5).integers(0, n, n).astype(map_dtype)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        _analyze_exact(indices, 4)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert peak / n <= 11.0
