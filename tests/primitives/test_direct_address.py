"""Direct-address matching against frozen copies of the sort path.

``match_positions``, ``lower_bounds``/``upper_bounds`` and
``detect_unique_keys`` answer dense integer keys by direct addressing.
Each must return exactly what the sort implementation it replaced
returns (pairs, bounds, dtypes, order); the ``_frozen_*`` functions
below are those implementations, kept here so the library cannot drift
from them.  The cases put the build span exactly at the threshold
(``build rows + probe rows``) and one past it, at the dtype extremes,
below zero, with duplicate build keys and with empty sides.
NPJ's hash table has its own frozen copy in ``test_hash_table.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim import GPUContext
from repro.joins.matching import match_positions
from repro.primitives.direct_address import dense_span
from repro.primitives.grouping import detect_unique_keys
from repro.primitives.merge_path import lower_bounds, upper_bounds
from repro.relational.types import id_dtype


def _frozen_match_positions(build_keys, probe_keys, unique_build_keys):
    """Sorted-probe binary search over the stably sorted build keys."""
    if build_keys.size == 0 or probe_keys.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    order = np.argsort(build_keys, kind="stable")
    sorted_keys = build_keys[order]
    probe_order = np.argsort(probe_keys, kind="stable")
    probe_sorted = probe_keys[probe_order]
    lo_sorted = np.searchsorted(sorted_keys, probe_sorted, side="left")
    if unique_build_keys:
        clipped = np.minimum(lo_sorted, sorted_keys.size - 1)
        matched = np.empty(probe_keys.size, dtype=bool)
        matched[probe_order] = sorted_keys[clipped] == probe_sorted
        build_at = np.empty(probe_keys.size, dtype=order.dtype)
        build_at[probe_order] = order[clipped]
        s_pos = np.flatnonzero(matched)
        return build_at[s_pos], s_pos
    hi_sorted = np.searchsorted(sorted_keys, probe_sorted, side="right")
    lo = np.empty_like(lo_sorted)
    lo[probe_order] = lo_sorted
    hi = np.empty_like(hi_sorted)
    hi[probe_order] = hi_sorted
    counts = (hi - lo).astype(np.int64)
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return order[empty], empty
    s_pos = np.repeat(np.arange(lo.size, dtype=np.int64), counts)
    starts = np.repeat(lo.astype(np.int64), counts)
    first = np.concatenate(([0], np.cumsum(counts)[:-1]))
    within = np.arange(total, dtype=np.int64) - np.repeat(first, counts)
    return order[starts + within], s_pos


def _frozen_bounds(r_keys_sorted, s_keys, side):
    return np.searchsorted(r_keys_sorted, s_keys, side=side)


def _bounds_at_id_width(bounds, r_rows):
    """Frozen ``intp`` bounds at the live width: bounds are held at the
    build rows' :func:`id_dtype`, their values unchanged."""
    assert bounds.dtype == np.intp
    return bounds.astype(id_dtype(r_rows))


def _assert_same(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


_LIMITS = {
    np.int32: (-(2**31), 2**31 - 1),
    np.int64: (-(2**63), 2**63 - 1),
}


@st.composite
def _dense_sides(draw, past_threshold=False):
    """Build keys spanning at (or one past) the direct-address threshold."""
    dtype = draw(st.sampled_from(sorted(_LIMITS, key=str)))
    kmin, kmax = _LIMITS[dtype]
    unique = draw(st.booleans())
    # One build key always spans 1, so "past" needs two.
    n_build = draw(st.integers(2 if past_threshold else 1, 60))
    n_probe = draw(st.integers(0, 60))
    threshold = n_build + n_probe
    if past_threshold:
        span = threshold + 1
    else:
        span = draw(st.sampled_from([threshold, draw(st.integers(1, threshold))]))
    if unique:
        span = max(span, n_build)
    if n_build == 1:
        span = 1
    base = draw(
        st.sampled_from([0, -span // 2, -7, kmin, kmax - span + 1, 12345])
    )
    # Both ends of the span are build keys, so the span is exact.
    ends = [0, span - 1] if n_build >= 2 else [0]
    if unique:
        inner = draw(st.permutations(range(1, span - 1)))
        build_offsets = ends + list(inner[: n_build - 2])
    else:
        rest = n_build - len(ends)
        build_offsets = ends + draw(
            st.lists(st.integers(0, span - 1), min_size=rest, max_size=rest)
        )
    build_offsets = draw(st.permutations(build_offsets))
    outside = [o for o in (-1, span) if kmin <= base + o <= kmax]
    probe_values = st.one_of(
        st.integers(0, span - 1).map(lambda o: base + o),
        st.sampled_from([kmin, kmax] + [base + o for o in outside]),
    )
    probe = draw(st.lists(probe_values, min_size=n_probe, max_size=n_probe))
    build = np.asarray([base + o for o in build_offsets], dtype=dtype)
    return build, np.asarray(probe, dtype=dtype), unique


@settings(max_examples=300, deadline=None)
@given(sides=_dense_sides())
def test_dense_match_positions_match_frozen_sort_path(sides):
    build, probe, unique = sides
    assert dense_span(build, probe) is not None
    for hint in {unique, False}:
        _assert_same(
            match_positions(build, probe, hint),
            _frozen_match_positions(build, probe, hint),
        )


@settings(max_examples=100, deadline=None)
@given(sides=_dense_sides(past_threshold=True))
def test_one_past_threshold_takes_sort_path(sides):
    build, probe, unique = sides
    assert dense_span(build, probe) is None
    _assert_same(
        match_positions(build, probe, unique),
        _frozen_match_positions(build, probe, unique),
    )


@settings(max_examples=100, deadline=None)
@given(
    build=st.lists(st.integers(0, 30), min_size=2, max_size=40),
    probe=st.lists(st.integers(-2, 32), max_size=40),
)
def test_wrong_unique_hint_matches_frozen_sort_path(build, probe):
    """A True hint on repeated build keys still returns the first duplicate."""
    b = np.asarray(build, dtype=np.int64)
    p = np.asarray(probe, dtype=np.int64)
    _assert_same(match_positions(b, p, True), _frozen_match_positions(b, p, True))


@settings(max_examples=300, deadline=None)
@given(sides=st.one_of(_dense_sides(), _dense_sides(past_threshold=True)),
       sort_probe=st.booleans())
def test_merge_path_bounds_match_searchsorted(sides, sort_probe):
    build, probe, _ = sides
    r_sorted = np.sort(build, kind="stable")
    s_keys = np.sort(probe, kind="stable") if sort_probe else probe
    ctx = GPUContext()
    for bound, side in ((lower_bounds, "left"), (upper_bounds, "right")):
        want = _bounds_at_id_width(_frozen_bounds(r_sorted, s_keys, side), r_sorted.size)
        _assert_same((bound(ctx, r_sorted, s_keys),), (want,))


@settings(max_examples=200, deadline=None)
@given(sides=_dense_sides())
def test_detect_unique_keys_matches_distinct_count(sides):
    build, _, _ = sides
    assert detect_unique_keys(build) == (np.unique(build).size == build.size)


def test_int64_extreme_probe_cannot_wrap_into_the_table():
    """Probe keys at +-2^63 are outside [min, max], never a fake match."""
    build = np.array([5, 3, 4, 6], dtype=np.int64)
    probe = np.array([-(2**63), 2**63 - 1, 4, -(2**63) + 3], dtype=np.int64)
    for unique in (True, False):
        r_pos, s_pos = match_positions(build, probe, unique)
        assert s_pos.tolist() == [2]
        assert r_pos.tolist() == [2]
    ctx = GPUContext()
    r_sorted = np.sort(build)
    assert lower_bounds(ctx, r_sorted, probe).tolist() == [0, 4, 1, 0]
    assert upper_bounds(ctx, r_sorted, probe).tolist() == [0, 4, 2, 0]


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("n_build, n_probe", [(0, 5), (5, 0), (0, 0)])
def test_bounds_on_empty_sides(dtype, n_build, n_probe):
    """(``tests/joins/test_matching.py`` covers ``match_positions``.)"""
    build = np.arange(n_build, dtype=dtype)
    probe = np.arange(n_probe, dtype=dtype)
    ctx = GPUContext()
    for bound, side in ((lower_bounds, "left"), (upper_bounds, "right")):
        want = _bounds_at_id_width(_frozen_bounds(build, probe, side), build.size)
        _assert_same((bound(ctx, build, probe),), (want,))


def test_mismatched_or_float_keys_are_not_dense():
    keys = np.arange(8, dtype=np.int32)
    assert dense_span(keys, keys.astype(np.int64)) is None
    assert dense_span(keys.astype(np.float64), keys.astype(np.float64)) is None
    assert dense_span(keys.astype(np.uint64), keys.astype(np.uint64)) is None
    assert dense_span(keys, keys) == (0, 7)
