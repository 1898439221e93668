"""Plain-numpy reference implementations used to validate the algorithms.

These are deliberately simple (no simulated device, no phases): a
textbook inner equi-join and a textbook group-by.  Every join and
aggregation algorithm in the library is tested against them.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Tuple

import numpy as np

from ..primitives.grouping import group_identify
from .relation import Relation


def join_match_indices(
    r_keys: np.ndarray, s_keys: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """All matching (r_index, s_index) pairs of an inner equi-join.

    Pairs are produced in s-major order (ascending s index; for a given s
    index, r partners appear in ascending r-sorted order).  Handles
    duplicate keys on both sides.
    """
    order = np.argsort(r_keys, kind="stable")
    r_sorted = r_keys[order]
    lo = np.searchsorted(r_sorted, s_keys, side="left")
    hi = np.searchsorted(r_sorted, s_keys, side="right")
    counts = (hi - lo).astype(np.int64)
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    s_idx = np.repeat(np.arange(s_keys.size, dtype=np.int64), counts)
    starts = np.repeat(lo.astype(np.int64), counts)
    # Within-match offsets: 0..count-1 per s tuple.
    first_positions = np.concatenate(([0], np.cumsum(counts)[:-1]))
    within = np.arange(total, dtype=np.int64) - np.repeat(first_positions, counts)
    r_idx = order[starts + within]
    return r_idx.astype(np.int64), s_idx


def reference_join(r: Relation, s: Relation, output_name: str = "T") -> Relation:
    """Materialized inner equi-join ``R ⋈ S`` on each relation's key.

    The output relation has the key column followed by R's payloads and
    then S's payloads, with S payload names suffixed ``_s`` on collision.
    """
    r_idx, s_idx = join_match_indices(r.key_values, s.key_values)
    columns = [("key", r.key_values[r_idx])]
    for name, array in r.payload_columns().items():
        columns.append((name, array[r_idx]))
    taken = {name for name, _ in columns}
    for name, array in s.payload_columns().items():
        out_name = name if name not in taken else f"{name}_s"
        columns.append((out_name, array[s_idx]))
        taken.add(out_name)
    return Relation(columns, key="key", name=output_name)


def reference_groupby(
    keys: np.ndarray,
    values: Dict[str, np.ndarray],
    aggregates: Dict[str, str],
) -> "OrderedDict[str, np.ndarray]":
    """Group-by with per-column aggregates.

    ``aggregates`` maps value-column name -> one of ``sum``, ``count``,
    ``min``, ``max``, ``mean``.  Returns an OrderedDict with ``group_key``
    (ascending distinct keys) followed by one aggregate column per entry.
    Integer sums are exact int64 (``OverflowError`` if a total does not
    fit); float columns keep float64 for ``sum``/``min``/``max``.
    """
    # Sort-based identification: identical (group_keys, inverse) to
    # np.unique(keys, return_inverse=True) but ~15x faster on
    # high-cardinality integer keys, which validation runs at scale hit
    # constantly (np.unique's return_inverse path hashes per element).
    group_keys, inverse = group_identify(keys)
    num_groups = group_keys.size
    out: "OrderedDict[str, np.ndarray]" = OrderedDict()
    out["group_key"] = group_keys
    counts = np.bincount(inverse, minlength=num_groups)
    for column, how in aggregates.items():
        if how == "count":
            out[f"count_{column}"] = counts.astype(np.int64)
            continue
        data = values[column]
        wide = data.astype(np.float64 if data.dtype.kind == "f" else np.int64)
        if how in ("sum", "mean"):
            if wide.dtype == np.float64:
                sums = np.bincount(inverse, weights=wide, minlength=num_groups)
            else:
                sums = _exact_int_group_sums(inverse, num_groups, wide)
            if how == "mean":
                sums = sums / np.maximum(counts, 1)
            out[f"{how}_{column}"] = sums
        elif how in ("min", "max"):
            reducer = np.minimum if how == "min" else np.maximum
            if wide.dtype == np.float64:
                lo, hi = -np.inf, np.inf
            else:
                lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
            agg = np.full(num_groups, hi if how == "min" else lo, wide.dtype)
            reducer.at(agg, inverse, wide)
            out[f"{how}_{column}"] = agg
        else:
            raise ValueError(f"unknown aggregate {how!r}")
    return out


def _exact_int_group_sums(
    inverse: np.ndarray, num_groups: int, wide: np.ndarray
) -> np.ndarray:
    """Exact per-group int64 sums: signed high and unsigned low 32-bit
    halves each sum in int64 without wrapping (below 2^31 rows)."""
    high = np.zeros(num_groups, dtype=np.int64)
    low = np.zeros(num_groups, dtype=np.int64)
    np.add.at(high, inverse, wide >> 32)
    np.add.at(low, inverse, wide & 0xFFFFFFFF)
    high += low >> 32
    if num_groups and (high.min() < -(1 << 31) or high.max() >= 1 << 31):
        raise OverflowError("a group's sum overflows int64")
    return (high << 32) + (low & 0xFFFFFFFF)


def assert_join_equal(result: Relation, expected: Relation) -> None:
    """Raise AssertionError with a diagnostic if two joins differ."""
    if result.column_names != expected.column_names:
        raise AssertionError(
            f"column mismatch: {result.column_names} != {expected.column_names}"
        )
    if result.num_rows != expected.num_rows:
        raise AssertionError(
            f"row-count mismatch: {result.num_rows} != {expected.num_rows}"
        )
    if not result.equals_unordered(expected):
        raise AssertionError("join outputs contain different rows")
