"""``host_take``: the checked ``np.take`` every hot host gather uses.

It must return exactly what fancy indexing returns (values and dtype)
for every integer map width, raise :class:`IndexError` where an index
falls outside the source, and never copy a source that is not
C-contiguous (``np.take`` would materialize a broadcast column in full).
"""

import tracemalloc

import numpy as np
import pytest

from repro.primitives.gather import host_take

_RNG = np.random.default_rng(29)
_MAP_DTYPES = [np.int32, np.int64, np.intp, np.uint32]


@pytest.mark.parametrize("map_dtype", _MAP_DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("src_dtype", [np.int32, np.int64, np.float64, np.uint8])
@pytest.mark.parametrize("size", [0, 1, 1000])
def test_equals_fancy_indexing(map_dtype, src_dtype, size):
    src = _RNG.integers(0, 100, 257).astype(src_dtype)
    idx = _RNG.integers(0, src.size, size).astype(map_dtype)
    got, want = host_take(src, idx), src[idx]
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def test_empty_source_and_empty_map():
    src = np.empty(0, dtype=np.int32)
    idx = np.empty(0, dtype=np.int32)
    got = host_take(src, idx)
    assert got.dtype == src[idx].dtype and got.size == 0


def test_two_dimensional_source_takes_rows():
    src = np.arange(12, dtype=np.int64).reshape(4, 3)
    idx = np.array([3, 0, 3], dtype=np.int32)
    assert np.array_equal(host_take(src, idx), src[idx])


@pytest.mark.parametrize("map_dtype", [np.int32, np.int64, np.intp], ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("bad", [-1, -(2**31), 10, 2**31 - 1])
def test_out_of_bounds_raises(map_dtype, bad):
    src = np.arange(10, dtype=np.int32)
    idx = np.array([0, bad, 9], dtype=map_dtype)
    with pytest.raises(IndexError, match=str(bad)):
        host_take(src, idx)


def test_unsigned_map_above_the_source_raises():
    src = np.arange(10, dtype=np.int32)
    with pytest.raises(IndexError):
        host_take(src, np.array([2**63], dtype=np.uint64))


def test_broadcast_source_is_never_copied():
    """A broadcast column gathers without materializing: 2^24 int64
    elements would take 128 MiB, the gather takes a few bytes."""
    src = np.broadcast_to(np.int64(7), 1 << 24)
    idx = np.array([(1 << 24) - 1, 0, 5], dtype=np.int64)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        out = host_take(src, idx)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert np.array_equal(out, [7, 7, 7])
    assert peak < 1 << 20


def test_strided_source_matches_fancy_indexing():
    base = np.arange(40, dtype=np.int32)
    src = base[::2]
    idx = np.array([19, 0, 7], dtype=np.int32)
    assert np.array_equal(host_take(src, idx), src[idx])


def test_byte_swapped_map_matches_fancy_indexing():
    src = np.arange(10, dtype=np.int32)
    idx = np.array([9, 0, 4], dtype=">i8")
    assert np.array_equal(host_take(src, idx), src[idx])


def test_boolean_map_keeps_mask_semantics():
    src = np.arange(5, dtype=np.int32)
    mask = np.array([True, False, True, False, True])
    assert np.array_equal(host_take(src, mask), src[mask])
