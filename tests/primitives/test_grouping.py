"""Oracle tests: sort-based group identification vs np.unique semantics.

The group-by variants and the join planner replaced their
``np.unique(..., return_inverse=True)`` hot paths with the sort-based
helpers in ``repro.primitives.grouping``.  These tests pin the helpers
to the ``np.unique`` contract — sorted ascending group keys, inverse
mapping with ``group_keys[inverse] == keys`` — including the empty,
all-equal and all-distinct edge cases, and check the contract end to
end through every group-by variant.  Dense integer keys (direct
addressing) are drawn over every narrow dtype, at the dtype extremes
and on both sides of the ``2n`` span threshold; NaN keys must collapse
into one last group; ``bucket_rows`` must equal the mask scans it
replaced.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregation import AggSpec, make_groupby_algorithm
from repro.primitives.direct_address import dense_span
from repro.primitives.grouping import (
    bucket_rows,
    count_distinct,
    distinct_sorted,
    group_identify,
    groups_from_sorted,
    stable_key_order,
)

_RNG = np.random.default_rng(11)

CASES = {
    "empty": np.empty(0, dtype=np.int32),
    "single": np.array([5], dtype=np.int64),
    "all_equal": np.full(501, -3, dtype=np.int32),
    "all_distinct": _RNG.permutation(1000).astype(np.int32),
    "high_cardinality": _RNG.integers(-1000, 1000, 5000).astype(np.int32),
    "few_groups": _RNG.integers(0, 7, 5000).astype(np.int64),
    "presorted": np.sort(_RNG.integers(0, 100, 2000)).astype(np.int32),
    "int64_wide": _RNG.integers(-(1 << 40), 1 << 40, 3000),
    "uint32": _RNG.integers(0, 1 << 32, 3000, dtype=np.uint32),
}


@pytest.mark.parametrize("case", sorted(CASES), ids=str)
class TestGroupIdentify:
    def test_matches_np_unique(self, case):
        keys = CASES[case]
        expected_keys, expected_inverse = np.unique(keys, return_inverse=True)
        group_keys, inverse = group_identify(keys)
        assert np.array_equal(group_keys, expected_keys)
        assert group_keys.dtype == keys.dtype
        assert np.array_equal(inverse, expected_inverse)

    def test_inverse_reconstructs_keys(self, case):
        keys = CASES[case]
        group_keys, inverse = group_identify(keys)
        assert np.array_equal(group_keys[inverse], keys)

    def test_count_and_distinct(self, case):
        keys = CASES[case]
        assert count_distinct(keys) == np.unique(keys).size
        assert np.array_equal(distinct_sorted(keys), np.unique(keys))

    def test_groups_from_sorted(self, case):
        keys = np.sort(CASES[case])
        expected_keys, expected_inverse = np.unique(keys, return_inverse=True)
        group_keys, inverse = groups_from_sorted(keys)
        assert np.array_equal(group_keys, expected_keys)
        assert np.array_equal(inverse, expected_inverse)


def _near_permutation(n: int) -> np.ndarray:
    """min..max spans exactly n values but one is duplicated."""
    keys = _RNG.permutation(n).astype(np.int32)
    inner = 1 + int(np.flatnonzero((keys[1:-1] != 0) & (keys[1:-1] != n - 1))[0])
    keys[inner] = keys[0]  # duplicate; 0 and n-1 still present
    return keys


class TestStableKeyOrder:
    """Every tier returns np.argsort(keys, kind="stable") bit-identically."""

    @pytest.mark.parametrize(
        "dtype",
        [np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint32,
         np.int64, np.uint64],
    )
    def test_full_range(self, dtype):
        info = np.iinfo(dtype)
        keys = _RNG.integers(info.min, info.max, 4000, endpoint=True, dtype=dtype)
        assert np.array_equal(
            stable_key_order(keys), np.argsort(keys, kind="stable")
        )

    @pytest.mark.parametrize(
        "name,keys",
        [
            ("narrow_span", _RNG.integers(0, 200, 4000).astype(np.int32)),
            ("narrow_span_negative", (_RNG.integers(0, 200, 4000) - 100).astype(np.int32)),
            ("dense_permutation", _RNG.permutation(8192).astype(np.int32)),
            ("shifted_permutation", (_RNG.permutation(8192) - 4096).astype(np.int32)),
            ("permutation_int64", _RNG.permutation(8192).astype(np.int64)),
            ("int64_span32", _RNG.integers(-(1 << 30), 1 << 30, 4000)),
            ("uint64_span32", _RNG.integers(1 << 40, (1 << 40) + (1 << 31), 4000).astype(np.uint64)),
            # span == n (> 2^16) but with a duplicate: the histogram check
            # must reject the scatter tier or the order would be garbage
            ("near_permutation", _near_permutation(70000)),
            ("floats", _RNG.standard_normal(1000)),
            ("empty", np.empty(0, dtype=np.int32)),
            ("constant", np.full(777, 42, dtype=np.int32)),
        ],
        ids=str,
    )
    def test_tier_patterns(self, name, keys):
        assert np.array_equal(
            stable_key_order(keys), np.argsort(keys, kind="stable")
        )


@pytest.mark.parametrize("strategy", ["HASH-AGG", "SORT-AGG", "PART-AGG"])
@pytest.mark.parametrize("case", ["all_equal", "all_distinct", "high_cardinality"], ids=str)
def test_groupby_variants_emit_np_unique_key_order(strategy, case):
    """Each variant's output group keys follow np.unique order/values."""
    keys = CASES[case].astype(np.int32)
    values = {"v1": np.arange(keys.size, dtype=np.int64)}
    result = make_groupby_algorithm(strategy).group_by(
        keys, values, [AggSpec("v1", "count")], seed=0
    )
    assert np.array_equal(result.output["group_key"], np.unique(keys))
    assert int(result.output["count_v1"].sum()) == keys.size


# -- dense keys: direct addressing vs np.unique -----------------------------

_DENSE_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32]


def _keys_spanning(dtype, lo: int, span: int, n: int, seed: int) -> np.ndarray:
    """*n* keys of *dtype* covering exactly ``[lo, lo + span)`` at its ends."""
    rng = np.random.default_rng(seed)
    offsets = rng.integers(0, span, n)
    if n >= 2:
        offsets[rng.choice(n, 2, replace=False)] = (0, span - 1)
    return np.array([lo + int(o) for o in offsets], dtype=dtype)


def _assert_matches_np_unique(keys: np.ndarray) -> None:
    expected_keys, expected_inverse = np.unique(keys, return_inverse=True)
    group_keys, inverse = group_identify(keys)
    assert group_keys.dtype == expected_keys.dtype == keys.dtype
    assert inverse.dtype == expected_inverse.dtype == np.intp
    assert np.array_equal(group_keys, expected_keys)
    assert np.array_equal(inverse, expected_inverse)


@st.composite
def _dense_case(draw):
    dtype = draw(st.sampled_from(_DENSE_DTYPES))
    info = np.iinfo(dtype)
    n = draw(st.integers(1, 300))
    # Up to one past the 2n threshold, and never wider than the dtype.
    span = 1 if n == 1 else draw(st.integers(1, min(2 * n + 1, int(info.max) - int(info.min) + 1)))
    lo = draw(st.integers(int(info.min), int(info.max) - span + 1))
    return _keys_spanning(dtype, lo, span, n, draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=300, deadline=None)
@given(_dense_case())
def test_dense_group_identify_matches_np_unique(keys):
    _assert_matches_np_unique(keys)


@pytest.mark.parametrize("n", [1, 2, 7, 1000], ids=str)
@pytest.mark.parametrize("dtype", _DENSE_DTYPES, ids=lambda d: np.dtype(d).name)
def test_dense_threshold_is_twice_the_row_count(dtype, n):
    """A span of exactly 2n is direct-addressed, 2n + 1 sorts; both exact."""
    info = np.iinfo(dtype)
    for span, dense in ((2 * n, True), (2 * n + 1, False)):
        if span > int(info.max) - int(info.min) + 1 or (n == 1 and span > 1):
            continue
        lo = int(info.min) if info.min < 0 else 0
        keys = _keys_spanning(dtype, lo, span, n, seed=span)
        assert (dense_span(keys, keys) is not None) == dense
        _assert_matches_np_unique(keys)


@pytest.mark.parametrize(
    "lo", [-(2**63), -(2**63) + 5, 2**63 - 100, -50], ids=str
)
def test_dense_int64_narrow_span_at_the_extremes(lo):
    keys = _keys_spanning(np.int64, lo, 100, 64, seed=3)
    assert dense_span(keys, keys) is not None
    _assert_matches_np_unique(keys)


@pytest.mark.parametrize("dtype", _DENSE_DTYPES, ids=lambda d: np.dtype(d).name)
def test_dense_empty_and_single_row(dtype):
    _assert_matches_np_unique(np.empty(0, dtype=dtype))
    info = np.iinfo(dtype)
    for value in (info.min, info.max, 0):
        _assert_matches_np_unique(np.array([value], dtype=dtype))


def test_full_range_int8_takes_the_sort_path():
    """max - min overflows int8, so dense_span refuses and the sort runs."""
    keys = np.array([-128, 127, 0, -128, 5] * 3, dtype=np.int8)
    assert dense_span(keys, keys) is None
    _assert_matches_np_unique(keys)


# -- NaN keys ---------------------------------------------------------------

NAN_CASES = {
    "interleaved": np.array([1, np.nan, 2, np.nan] * 64),
    "all_nan": np.full(9, np.nan),
    "one_nan": np.array([3.0, np.nan, -1.0]),
    "infinities": np.array([np.inf, np.nan, -np.inf, np.nan, np.inf, 0.0]),
    "float32": np.array([np.nan, 2, np.nan, 1], dtype=np.float32),
}


@pytest.mark.parametrize("case", sorted(NAN_CASES), ids=str)
def test_nan_keys_form_one_last_group(case):
    keys = NAN_CASES[case]
    expected_keys, expected_inverse = np.unique(keys, return_inverse=True)
    group_keys, inverse = group_identify(keys)
    assert np.array_equal(group_keys, expected_keys, equal_nan=True)
    assert np.array_equal(inverse, expected_inverse)
    sorted_keys = np.sort(keys)
    group_keys, inverse = groups_from_sorted(sorted_keys)
    expected_keys, expected_inverse = np.unique(sorted_keys, return_inverse=True)
    assert np.array_equal(group_keys, expected_keys, equal_nan=True)
    assert np.array_equal(inverse, expected_inverse)
    assert count_distinct(keys) == expected_keys.size
    assert np.array_equal(distinct_sorted(keys), expected_keys, equal_nan=True)


# -- the stable bucket split ------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 64),
    st.integers(0, 500),
    st.integers(0, 2**32 - 1),
    st.sampled_from([np.int64, np.int32]),
)
def test_bucket_rows_match_mask_scans(num_buckets, rows, seed, dtype):
    rng = np.random.default_rng(seed)
    # Draw from a random subset of the buckets so some stay empty.
    used = rng.choice(num_buckets, rng.integers(1, num_buckets + 1), replace=False)
    codes = rng.choice(used, rows).astype(dtype)
    split = bucket_rows(codes, num_buckets)
    assert len(split) == num_buckets
    for bucket, got in enumerate(split):
        want = np.flatnonzero(codes == bucket)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
