"""A tier group-by's distinct-group counts per tier.

Each tier is charged one partial per distinct group among its rows.  A
uniform placement takes the group count as it is; only a mixed one
counts row by row.  Both must equal the per-row computation every tier
group-by once ran, kept here as a frozen copy.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tier.executor import _tier_group_counts


def frozen_group_counts(inverse, hot_idx, num_segments, segment_rows):
    """The per-row hot mask and two bincounts, as every call once ran them."""
    segment_is_hot = np.zeros(num_segments, dtype=bool)
    segment_is_hot[list(hot_idx)] = True
    row_is_hot = np.repeat(segment_is_hot, segment_rows)[: inverse.size]
    hot_rows = int(np.count_nonzero(row_is_hot))
    cold_rows = inverse.size - hot_rows
    hot_groups = cold_groups = 0
    if hot_rows:
        hot_groups = np.count_nonzero(np.bincount(inverse[row_is_hot]))
    if cold_rows:
        cold_groups = np.count_nonzero(np.bincount(inverse[~row_is_hot]))
    return hot_groups, cold_groups, hot_rows, cold_rows


@st.composite
def placements(draw):
    """Whole and partial last segments, the empty relation, every placement."""
    segment_rows = draw(st.integers(1, 32))
    rows = draw(
        st.sampled_from([0, 1, segment_rows, 3 * segment_rows])
        | st.integers(0, 6 * segment_rows)
    )
    groups = draw(st.integers(1, 40)) if rows else 0
    codes = draw(
        st.lists(st.integers(0, max(0, groups - 1)), min_size=rows, max_size=rows)
    )
    # group ids are dense, as group_identify hands them out
    _, inverse = np.unique(np.asarray(codes, dtype=np.int64), return_inverse=True)
    inverse = inverse.astype(np.int32)
    groups = int(inverse.max()) + 1 if rows else 0
    num_segments = -(-rows // segment_rows)
    layout = draw(st.sampled_from(["all-hot", "all-cold", "mixed"]))
    if layout == "all-hot":
        hot_idx = list(range(num_segments))
    elif layout == "all-cold":
        hot_idx = []
    else:
        hot_idx = sorted(
            draw(st.sets(st.integers(0, max(0, num_segments - 1)), max_size=num_segments))
        )
    return inverse, groups, hot_idx, num_segments, segment_rows


@settings(max_examples=300, deadline=None)
@given(placements())
def test_group_counts_match_the_per_row_count(case):
    inverse, groups, hot_idx, num_segments, segment_rows = case
    hot_groups, cold_groups = _tier_group_counts(
        inverse, groups, hot_idx, num_segments, segment_rows
    )
    want_hot, want_cold, hot_rows, cold_rows = frozen_group_counts(
        inverse, hot_idx, num_segments, segment_rows
    )
    # a tier with no rows is never charged, so only its count's value matters
    assert hot_groups == want_hot
    assert cold_groups == want_cold
    if hot_rows:
        assert type(hot_groups) is type(want_hot)
    if cold_rows:
        assert type(cold_groups) is type(want_cold)


def test_every_placement_kind_is_covered():
    """Pin the three shapes by hand: all hot, all cold, mixed with a short tail."""
    inverse = np.array([0, 1, 1, 2, 0, 3, 3], dtype=np.int32)  # 3 segments of 3 rows
    for hot_idx, expected in (
        ([0, 1, 2], (4, 0)),
        ([], (0, 4)),
        ([2], (1, 4)),  # the one-row tail holds group 3 only
        ([0, 2], (3, 3)),
    ):
        got = _tier_group_counts(inverse, 4, hot_idx, 3, 3)
        assert got == expected
        assert got == frozen_group_counts(inverse, hot_idx, 3, 3)[:2]
    empty = np.zeros(0, dtype=np.int32)
    assert _tier_group_counts(empty, 0, [], 0, 8) == (0, 0)
