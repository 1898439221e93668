"""Columnar relations.

Relations are stored column-wise as contiguous numpy arrays, exactly as
the paper stores them in GPU memory (Section 3).  A relation
``R(k, r_1, ..., r_n)`` has one key column and ``n`` payload (non-key)
columns; tuples are identified by physical IDs (explicit positions) or
virtual IDs (implied positions) depending on the join pattern.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import InvalidRelationError
from ..primitives.gather import host_take
from ..primitives.grouping import detect_unique_keys
from .types import column_type


class Relation:
    """An in-memory columnar relation with one designated key column.

    A relation is a read-only value.  It stores ``np.ascontiguousarray``
    of each column and clears its ``writeable`` flag; for an array that
    is already contiguous this is the caller's own object, which the
    relation takes over, so a later write through it raises (a view's
    base stays writable: do not write it).  Its content facts,
    :attr:`fingerprint` and :attr:`key_is_unique`, are computed once.

    >>> import numpy as np
    >>> keys = np.arange(4, dtype=np.int32)
    >>> r = Relation({"key": keys}, key="key")
    >>> keys[0] = 7
    Traceback (most recent call last):
    ValueError: assignment destination is read-only
    >>> twin = Relation({"key": np.arange(4, dtype=np.int32)}, key="key")
    >>> twin.fingerprint == r.fingerprint, r.key_is_unique
    (True, True)

    Parameters
    ----------
    columns:
        Mapping or iterable of ``(name, numpy array)`` pairs; all arrays
        must be 1-D, equally long, and of a supported integer dtype.
    key:
        Name of the (join) key column.
    name:
        Optional display name for reports.
    """

    def __init__(self, columns, key: str, name: str = ""):
        if isinstance(columns, dict):
            items: Iterable[Tuple[str, np.ndarray]] = columns.items()
        else:
            items = columns
        self._columns: "OrderedDict[str, np.ndarray]" = OrderedDict()
        length: Optional[int] = None
        for col_name, array in items:
            array = np.asarray(array)
            if array.ndim != 1:
                raise InvalidRelationError(
                    f"column {col_name!r} must be 1-D, got shape {array.shape}"
                )
            column_type(array.dtype)  # validates supported dtype
            if length is None:
                length = array.size
            elif array.size != length:
                raise InvalidRelationError(
                    f"column {col_name!r} has {array.size} rows, expected {length}"
                )
            self._columns[col_name] = array = np.ascontiguousarray(array)
            array.flags.writeable = False
        if not self._columns:
            raise InvalidRelationError("a relation needs at least one column")
        if key not in self._columns:
            raise InvalidRelationError(
                f"key column {key!r} not among columns {list(self._columns)}"
            )
        self.key = key
        self.name = name

    # -- construction -------------------------------------------------------

    @classmethod
    def from_key_payloads(
        cls,
        key_values: np.ndarray,
        payloads: Sequence[np.ndarray],
        key: str = "key",
        payload_prefix: str = "p",
        name: str = "",
    ) -> "Relation":
        """Build a relation from a key array and positional payload arrays."""
        columns: List[Tuple[str, np.ndarray]] = [(key, key_values)]
        for i, payload in enumerate(payloads, start=1):
            columns.append((f"{payload_prefix}{i}", payload))
        return cls(columns, key=key, name=name)

    # -- shape --------------------------------------------------------------

    @property
    def num_rows(self) -> int:
        return int(next(iter(self._columns.values())).size)

    @property
    def column_names(self) -> List[str]:
        return list(self._columns)

    @property
    def payload_names(self) -> List[str]:
        return [c for c in self._columns if c != self.key]

    @property
    def num_payload_columns(self) -> int:
        return len(self._columns) - 1

    @property
    def total_bytes(self) -> int:
        return sum(int(a.nbytes) for a in self._columns.values())

    # -- facts ----------------------------------------------------------------

    @cached_property
    def fingerprint(self) -> str:
        """Content hash of the schema, key designation and bytes: equal
        relations share it, and one changed value gives a new one."""
        digest = hashlib.blake2b(digest_size=16)
        digest.update(self.key.encode("utf-8"))
        for name, array in self._columns.items():
            digest.update(b"\x00" + name.encode("utf-8") + str(array.dtype).encode())
            digest.update(array)
        return digest.hexdigest()

    @cached_property
    def key_is_unique(self) -> bool:
        """True if the key column holds no value twice: a primary-key
        build side, which the joins match in one Merge Path pass and
        with one-slot tables."""
        return detect_unique_keys(self.key_values)

    # -- access ---------------------------------------------------------------

    def column(self, name: str) -> np.ndarray:
        try:
            return self._columns[name]
        except KeyError:
            raise InvalidRelationError(
                f"no column {name!r} in relation (have {list(self._columns)})"
            ) from None

    @property
    def key_values(self) -> np.ndarray:
        return self._columns[self.key]

    def payload_columns(self) -> "OrderedDict[str, np.ndarray]":
        return OrderedDict(
            (n, a) for n, a in self._columns.items() if n != self.key
        )

    def columns(self) -> "OrderedDict[str, np.ndarray]":
        return OrderedDict(self._columns)

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    # -- transforms ------------------------------------------------------------

    def take(self, indices: np.ndarray, name: str = "") -> "Relation":
        """A new relation with rows at *indices* (in that order)."""
        return Relation(
            [(n, host_take(a, indices)) for n, a in self._columns.items()],
            key=self.key,
            name=name or self.name,
        )

    def rename(self, mapping: Dict[str, str]) -> "Relation":
        """A new relation with columns renamed per *mapping*."""
        columns = [(mapping.get(n, n), a) for n, a in self._columns.items()]
        return Relation(columns, key=mapping.get(self.key, self.key), name=self.name)

    def head(self, n: int = 5) -> "Relation":
        return Relation(
            [(name, a[:n]) for name, a in self._columns.items()],
            key=self.key,
            name=self.name,
        )

    # -- comparison --------------------------------------------------------------

    def sorted_by_all_columns(self) -> "Relation":
        """Rows in a canonical order (for order-insensitive comparison)."""
        arrays = list(self._columns.values())
        order = np.lexsort(tuple(reversed(arrays)))
        return self.take(order)

    def equals_unordered(self, other: "Relation") -> bool:
        """True if both relations contain the same multiset of rows."""
        if self.column_names != other.column_names:
            return False
        if self.num_rows != other.num_rows:
            return False
        a = self.sorted_by_all_columns()
        b = other.sorted_by_all_columns()
        return all(
            np.array_equal(a.column(n), b.column(n)) for n in self.column_names
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cols = ", ".join(
            f"{n}:{a.dtype}{'*' if n == self.key else ''}"
            for n, a in self._columns.items()
        )
        label = f" {self.name!r}" if self.name else ""
        return f"Relation{label}({cols}) [{self.num_rows} rows]"
