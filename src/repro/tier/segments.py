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
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from ..primitives.grouping import group_identify
from ..relational.relation import Relation


class SegmentKey(NamedTuple):
    """Identity of one column segment: ``(relation, column, index)``."""

    relation: str
    column: str
    index: int

    def describe(self) -> str:
        return f"{self.relation}.{self.column}[{self.index}]"


class SegmentedRelation:
    """A relation viewed as fixed-size column segments, plus its indexes.

    The backing :class:`~repro.relational.relation.Relation` is the only
    copy of the data; the cache reserves a segment's bytes on the
    simulated device when the placement policy admits it.  Beside the
    view it memoises per-column group indexes (:meth:`groups`), which
    depend only on the column's values.  Registered relations are never
    mutated in place, so an index lives exactly as long as this object:
    ``TieredRuntime.invalidate_relation`` (and so ``QueryServer.update``)
    drops the segmented relation and its indexes with it.
    """

    def __init__(self, relation: Relation, segment_rows: int, name: str = ""):
        if segment_rows <= 0:
            raise ValueError(f"segment_rows must be positive, got {segment_rows}")
        self.relation = relation
        self.segment_rows = int(segment_rows)
        self.name = name or relation.name or f"relation@{id(relation):x}"
        self._groups: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}

    @property
    def num_rows(self) -> int:
        return self.relation.num_rows

    @property
    def num_segments(self) -> int:
        rows = self.relation.num_rows
        if rows == 0:
            return 0
        return -(-rows // self.segment_rows)

    @property
    def total_bytes(self) -> int:
        return self.relation.total_bytes

    def row_range(self, index: int) -> Tuple[int, int]:
        """Half-open row range ``[start, stop)`` of segment *index*."""
        if not 0 <= index < self.num_segments:
            raise IndexError(
                f"segment {index} out of range for {self.name!r} "
                f"({self.num_segments} segments)"
            )
        start = index * self.segment_rows
        return start, min(start + self.segment_rows, self.relation.num_rows)

    def segment_key(self, column: str, index: int) -> SegmentKey:
        return SegmentKey(self.name, column, index)

    def segment_nbytes(self, column: str, index: int) -> int:
        start, stop = self.row_range(index)
        return (stop - start) * int(self.relation.column(column).dtype.itemsize)

    def range_nbytes(self, columns: Sequence[str], index: int) -> int:
        """Bytes of one row range across *columns*."""
        return sum(self.segment_nbytes(column, index) for column in columns)

    def keys_for(self, columns: Sequence[str], index: int) -> List[SegmentKey]:
        """Segment keys an operator reading *columns* needs for range *index*."""
        return [self.segment_key(column, index) for column in columns]

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SegmentedRelation({self.name!r}, {self.num_segments} segments "
            f"x {self.segment_rows} rows)"
        )
