"""Segmentation view: ranges, keys, byte accounting."""

import numpy as np
import pytest

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
    assert seg.keys_for(["key", "pay"], 0) == [
        SegmentKey("S", "key", 0), SegmentKey("S", "pay", 0)
    ]


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
