"""Fixed-size column segments over relations.

The tiering layer (Mordred-style; see SNIPPETS.md snippet 2) manages
device residency at the granularity of *column segments*: each column of
a relation is split into fixed-size runs of ``segment_rows`` rows, and
placement decisions are taken per ``(relation, column, segment)`` key.
A segment is metadata only — a key, a row range and a byte count; the
cache holds a bytes-only reservation per resident segment and no copy of
its data.  A row range is *hot* for an operator only when **all** the
columns that operator reads are resident for that range — the same rule
Mordred's ``segment_group`` bitmap encodes — so the executor can split
one operator into a GPU part over hot ranges and a CPU part over cold
ones without ever mixing tiers inside a row.

Segment geometry is fixed by the relation version, so it is a table
built once, like Mordred's per-segment index arrays (``key_idx``,
``segment_group``): row ranges and item sizes at construction, keys and
byte counts per columns tuple on first use.  Every lookup reads it.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, NamedTuple, Sequence, Tuple

import numpy as np

from ..aggregation.base import AggSpec, fold_groups, value_columns
from ..primitives.grouping import group_identify
from ..relational.relation import Relation


class SegmentKey(NamedTuple):
    """Identity of one column segment: ``(relation, column, index)``."""

    relation: str
    column: str
    index: int

    def describe(self) -> str:
        return f"{self.relation}.{self.column}[{self.index}]"


class _Table(NamedTuple):
    """One columns tuple's segment keys and bytes, indexed by segment."""

    #: one key per column
    keys: Tuple[Tuple[SegmentKey, ...], ...]
    #: one byte count per column
    column_nbytes: Tuple[Tuple[int, ...], ...]
    #: the range's bytes across the columns
    nbytes: Tuple[int, ...]


class SegmentedRelation:
    """A relation viewed as fixed-size column segments, plus its indexes.

    The backing :class:`~repro.relational.relation.Relation` is the only
    copy of the data; the cache reserves a segment's bytes on the
    simulated device when the placement policy admits it.

    Everything here is fixed by the relation version, so it is computed
    once and then looked up:

    * the *segment table* — each segment's row range and each column's
      item size at construction, and per columns tuple the segment keys
      and range byte counts on first use (:meth:`table`);
    * per-column group indexes (:meth:`groups`);
    * per-``(group column, aggregates)`` folds (:meth:`fold`).

    Registered relations are never mutated in place, so all of it lives
    exactly as long as this object: ``TieredRuntime.invalidate_relation``
    (and so ``QueryServer.update``) drops the segmented relation and its
    indexes with it.
    """

    def __init__(self, relation: Relation, segment_rows: int, name: str = ""):
        if segment_rows <= 0:
            raise ValueError(f"segment_rows must be positive, got {segment_rows}")
        self.relation = relation
        self.segment_rows = int(segment_rows)
        self.name = name or relation.name or f"relation@{id(relation):x}"
        rows = relation.num_rows
        self.num_rows = rows
        self._ranges: Tuple[Tuple[int, int], ...] = tuple(
            (start, min(start + self.segment_rows, rows))
            for start in range(0, rows, self.segment_rows)
        )
        self.num_segments = len(self._ranges)
        #: Rows of every segment, in index order.
        self.segment_row_counts: Tuple[int, ...] = tuple(
            stop - start for start, stop in self._ranges
        )
        self._itemsize: Dict[str, int] = {
            column: int(array.dtype.itemsize)
            for column, array in relation.columns().items()
        }
        self._tables: Dict[Tuple[str, ...], _Table] = {}
        self._groups: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        self._folds: Dict[tuple, "OrderedDict[str, np.ndarray]"] = {}

    @property
    def total_bytes(self) -> int:
        return self.relation.total_bytes

    def _check(self, index: int) -> None:
        if not 0 <= index < self.num_segments:
            raise IndexError(
                f"segment {index} out of range for {self.name!r} "
                f"({self.num_segments} segments)"
            )

    def row_range(self, index: int) -> Tuple[int, int]:
        """Half-open row range ``[start, stop)`` of segment *index*."""
        self._check(index)
        return self._ranges[index]

    def segment_key(self, column: str, index: int) -> SegmentKey:
        return SegmentKey(self.name, column, index)

    def _itemsize_of(self, column: str) -> int:
        if column not in self._itemsize:
            self.relation.column(column)  # raises InvalidRelationError
        return self._itemsize[column]

    def segment_nbytes(self, column: str, index: int) -> int:
        self._check(index)
        return self.segment_row_counts[index] * self._itemsize_of(column)

    def table(self, columns: Sequence[str]) -> "_Table":
        """Per-segment keys and bytes of an operator reading *columns*.

        Built once per columns tuple: ``keys[i]`` and
        ``column_nbytes[i]`` hold one entry per column of range *i*, and
        ``nbytes[i]`` is the range's bytes across *columns*.
        """
        columns = tuple(columns)
        table = self._tables.get(columns)
        if table is None:
            sizes = [self._itemsize_of(column) for column in columns]
            column_nbytes = tuple(
                tuple(rows * size for size in sizes)
                for rows in self.segment_row_counts
            )
            table = self._tables[columns] = _Table(
                keys=tuple(
                    tuple(SegmentKey(self.name, column, index) for column in columns)
                    for index in range(self.num_segments)
                ),
                column_nbytes=column_nbytes,
                nbytes=tuple(sum(row) for row in column_nbytes),
            )
        return table

    def range_nbytes(self, columns: Sequence[str], index: int) -> int:
        """Bytes of one row range across *columns*."""
        self._check(index)
        return self.table(columns).nbytes[index]

    def keys_for(self, columns: Sequence[str], index: int) -> Tuple[SegmentKey, ...]:
        """Segment keys an operator reading *columns* needs for range *index*."""
        self._check(index)
        return self.table(columns).keys[index]

    def groups(self, column: str) -> Tuple[np.ndarray, np.ndarray]:
        """Memoised :func:`group_identify` of *column*: (group keys, inverse).

        Both arrays are read-only; the inverse is int32 whenever the
        row count allows.
        """
        memo = self._groups.get(column)
        if memo is None:
            group_keys, inverse = group_identify(self.relation.column(column))
            if self.num_rows < 2**31:
                inverse = inverse.astype(np.int32)
            group_keys.flags.writeable = False
            inverse.flags.writeable = False
            memo = self._groups[column] = (group_keys, inverse)
        return memo

    def fold(
        self, group_column: str, aggregates: Tuple[AggSpec, ...]
    ) -> "OrderedDict[str, np.ndarray]":
        """Memoised :func:`fold_groups` of *aggregates* by *group_column*.

        Every column is read-only; callers that hand them out copy them.
        """
        memo_key = (group_column, aggregates)
        memo = self._folds.get(memo_key)
        if memo is None:
            group_keys, inverse = self.groups(group_column)
            values = {c: self.relation.column(c) for c in value_columns(aggregates)}
            memo = fold_groups(group_keys, inverse, values, aggregates)
            for column in memo.values():
                column.flags.writeable = False
            self._folds[memo_key] = memo
        return memo

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SegmentedRelation({self.name!r}, {self.num_segments} segments "
            f"x {self.segment_rows} rows)"
        )
