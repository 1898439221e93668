"""``match_positions`` against a frozen copy of the unsorted-probe search.

The sorted-probe search must return exactly the pairs, dtypes and
order of searching the probe keys as given; ``_reference`` is that
construction, kept here verbatim so the library cannot drift from it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.joins.matching import match_positions


def _reference(build_keys, probe_keys, unique_build_keys):
    if build_keys.size == 0 or probe_keys.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    order = np.argsort(build_keys, kind="stable")
    sorted_keys = build_keys[order]
    lo = np.searchsorted(sorted_keys, probe_keys, side="left")
    if unique_build_keys:
        clipped = np.minimum(lo, sorted_keys.size - 1)
        matched = sorted_keys[clipped] == probe_keys
        hi = lo + matched.astype(lo.dtype)
    else:
        hi = np.searchsorted(sorted_keys, probe_keys, side="right")
    counts = (hi - lo).astype(np.int64)
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    s_pos = np.repeat(np.arange(lo.size, dtype=np.int64), counts)
    starts = np.repeat(lo.astype(np.int64), counts)
    first = np.concatenate(([0], np.cumsum(counts)[:-1]))
    within = np.arange(total, dtype=np.int64) - np.repeat(first, counts)
    return order[starts + within], s_pos


def _assert_same(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


_DTYPES = {
    "int32": (np.int32, -(2 ** 31), 2 ** 31 - 1),
    "int64": (np.int64, -(2 ** 63), 2 ** 63 - 1),
    "uint32": (np.uint32, 0, 2 ** 32 - 1),
}


@st.composite
def _sides(draw):
    dtype, lo, hi = _DTYPES[draw(st.sampled_from(sorted(_DTYPES)))]
    # A narrow window forces duplicates and overlap; a wide one puts
    # probe keys outside the build range and spans > 16 bits.
    width = draw(st.sampled_from([4, 300, 2 ** 20, 2 ** 31]))
    base = draw(st.integers(lo, max(lo, hi - width)))
    values = st.integers(base, min(hi, base + width))
    extremes = st.sampled_from([lo, hi, base - 1 if base > lo else lo])
    keys = st.lists(st.one_of(values, values, extremes), max_size=300)
    unique = draw(st.booleans())
    build = draw(
        st.lists(st.one_of(values, extremes), max_size=300, unique=unique)
    )
    probe = draw(keys)
    return (
        np.asarray(build, dtype=dtype),
        np.asarray(probe, dtype=dtype),
        unique,
    )


@settings(max_examples=300, deadline=None)
@given(sides=_sides())
def test_matches_unsorted_probe_search(sides):
    build, probe, unique = sides
    _assert_same(match_positions(build, probe, unique), _reference(build, probe, unique))


@settings(max_examples=100, deadline=None)
@given(sides=_sides())
def test_non_unique_search_on_unique_keys_agrees(sides):
    """Unique build keys give the same pairs through either search."""
    build, probe, unique = sides
    if unique:
        _assert_same(
            match_positions(build, probe, False), match_positions(build, probe, True)
        )


@pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint32])
@pytest.mark.parametrize("unique", [False, True])
@pytest.mark.parametrize("n_build, n_probe", [(0, 5), (5, 0), (0, 0)])
def test_empty_sides(dtype, unique, n_build, n_probe):
    build = np.arange(n_build, dtype=dtype)
    probe = np.arange(n_probe, dtype=dtype)
    _assert_same(match_positions(build, probe, unique), _reference(build, probe, unique))


@pytest.mark.parametrize("unique", [False, True])
def test_partitioned_layout_at_scale(unique):
    """Radix-partition-like layouts (unsorted within partitions), 2^16 keys."""
    rng = np.random.default_rng(7)
    n = 1 << 16
    build = rng.permutation(n).astype(np.int32) - n // 2
    if not unique:
        build = build // 3
    probe = rng.integers(-n, n, n).astype(np.int32)
    build = build[np.argsort(build & 0xFF, kind="stable")]
    probe = probe[np.argsort(probe & 0xFF, kind="stable")]
    _assert_same(match_positions(build, probe, unique), _reference(build, probe, unique))

