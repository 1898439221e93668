"""Segmentation view: ranges, keys, byte accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.relation import Relation
from repro.tier import SegmentedRelation, SegmentKey


def make_relation(rows: int, name: str = "R") -> Relation:
    return Relation(
        [
            ("key", np.arange(rows, dtype=np.int64)),
            ("pay", np.arange(rows, dtype=np.int32)),
        ],
        key="key",
        name=name,
    )


def test_segment_count_and_ranges_cover_all_rows():
    rel = make_relation(10_000)
    seg = SegmentedRelation(rel, 4096)
    assert seg.num_segments == 3
    covered = []
    for i in range(seg.num_segments):
        start, stop = seg.row_range(i)
        assert stop > start
        covered.extend(range(start, stop))
    assert covered == list(range(10_000))


def test_last_segment_is_short():
    seg = SegmentedRelation(make_relation(10_000), 4096)
    assert seg.row_range(2) == (8192, 10_000)
    # byte accounting follows the short range
    assert seg.segment_nbytes("key", 2) == (10_000 - 8192) * 8
    assert seg.segment_nbytes("pay", 2) == (10_000 - 8192) * 4


def test_range_nbytes_sums_columns():
    seg = SegmentedRelation(make_relation(10_000), 4096)
    assert seg.range_nbytes(["key", "pay"], 0) == 4096 * (8 + 4)


def test_segment_keys_identity_and_iteration():
    seg = SegmentedRelation(make_relation(9000, name="S"), 4096)
    key = seg.segment_key("pay", 1)
    assert key == SegmentKey("S", "pay", 1)
    assert key.describe() == "S.pay[1]"
    assert seg.keys_for(["key", "pay"], 0) == (
        SegmentKey("S", "key", 0), SegmentKey("S", "pay", 0)
    )


def test_out_of_range_and_bad_segment_rows_raise():
    seg = SegmentedRelation(make_relation(100), 4096)
    assert seg.num_segments == 1
    with pytest.raises(IndexError):
        seg.row_range(1)
    with pytest.raises(ValueError):
        SegmentedRelation(make_relation(100), 0)


def test_empty_relation_has_no_segments():
    rel = Relation(
        [("key", np.empty(0, dtype=np.int64)), ("pay", np.empty(0, dtype=np.int64))],
        key="key",
        name="E",
    )
    seg = SegmentedRelation(rel, 4096)
    assert seg.num_segments == 0


@st.composite
def segmented(draw):
    """Row counts 0, 1, whole and partial segments; wide and narrow columns."""
    segment_rows = draw(st.integers(1, 64))
    whole = draw(st.integers(0, 6))
    rows = draw(
        st.sampled_from([0, 1, whole * segment_rows])
        | st.integers(0, 6 * segment_rows + segment_rows - 1)
    )
    dtypes = draw(st.lists(st.sampled_from([np.int32, np.int64]), min_size=1, max_size=3))
    columns = [(f"c{i}", np.zeros(rows, dtype=dtype)) for i, dtype in enumerate(dtypes)]
    return Relation(columns, key="c0", name="T"), segment_rows


@settings(max_examples=150, deadline=None)
@given(segmented(), st.data())
def test_segment_table_matches_its_arithmetic(case, data):
    rel, segment_rows = case
    seg = SegmentedRelation(rel, segment_rows)
    rows = rel.num_rows
    expected_segments = -(-rows // segment_rows)
    assert seg.num_rows == rows
    assert seg.num_segments == expected_segments
    columns = data.draw(
        st.lists(st.sampled_from(rel.column_names), min_size=1, unique=True)
    )
    for index in range(expected_segments):
        start = index * segment_rows
        stop = min(start + segment_rows, rows)
        assert seg.row_range(index) == (start, stop)
        assert seg.segment_row_counts[index] == stop - start
        for column in rel.column_names:
            itemsize = rel.column(column).dtype.itemsize
            assert seg.segment_nbytes(column, index) == (stop - start) * itemsize
        assert seg.range_nbytes(columns, index) == sum(
            seg.segment_nbytes(column, index) for column in columns
        )
        keys = seg.keys_for(columns, index)
        assert isinstance(keys, tuple)
        assert keys == tuple(SegmentKey("T", column, index) for column in columns)
        assert seg.keys_for(list(columns), index) is keys  # built once
    for index in (-1, expected_segments, expected_segments + 1):
        for lookup in (
            lambda: seg.row_range(index),
            lambda: seg.segment_nbytes(columns[0], index),
            lambda: seg.range_nbytes(columns, index),
            lambda: seg.keys_for(columns, index),
        ):
            with pytest.raises(IndexError):
                lookup()
