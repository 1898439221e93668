"""Independent correctness references for the benchmark.

Everything here is plain numpy: no import from the library under test,
so a defect in a shared library helper cannot hide from the gate.

Outputs are compared as ``{column name: array}`` mappings in two ways:

* :func:`exact_digest` — byte-for-byte, ordered, dtype-sensitive.  Used
  for the placement-independence oracle (sharded, fault-planned and
  tiered runs against plain single-device ``execute()``).
* :func:`value_fingerprint` — an order-insensitive multiset hash of the
  rows with every value widened to 64 bits.  Used between the plain
  executor and the numpy reference below, whose row order and integer
  widths legitimately differ from the library's.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Mapping, Sequence, Tuple

import numpy as np

Columns = Mapping[str, np.ndarray]

_GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, elementwise on uint64 (wrapping arithmetic)."""
    x = x ^ (x >> np.uint64(30))
    x = x * np.uint64(0xBF58476D1CE4E5B9)
    x = x ^ (x >> np.uint64(27))
    x = x * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _as_bits(column: np.ndarray) -> np.ndarray:
    """Widen to 64 bits (ints to int64, floats to float64) and view as uint64."""
    column = np.asarray(column)
    if column.dtype.kind == "f":
        return np.ascontiguousarray(column, dtype=np.float64).view(np.uint64)
    return np.ascontiguousarray(column, dtype=np.int64).view(np.uint64)


def value_fingerprint(columns: Columns) -> Tuple:
    """Order- and width-insensitive fingerprint of a table's rows.

    Each row hashes to a mix of an odd-weighted sum of its widened
    values, so a changed value, a value moved to another column or a
    dropped row changes the fingerprint.
    """
    names = sorted(columns)
    rows = len(columns[names[0]]) if names else 0
    row_sum = np.zeros(rows, dtype=np.uint64)
    for position, name in enumerate(names):
        weight = np.uint64((((position + 1) * _GOLDEN) | 1) & _MASK)
        row_sum += _as_bits(columns[name]) * weight
    row_hash = _mix(row_sum)
    return (
        tuple(names),
        rows,
        int(row_hash.sum(dtype=np.uint64)),
        int(_mix(row_hash ^ np.uint64(_GOLDEN)).sum(dtype=np.uint64)),
    )


def exact_digest(columns: Columns) -> str:
    """SHA-256 over column names, dtypes, shapes and bytes, in order."""
    digest = hashlib.sha256()
    for name, column in columns.items():
        column = np.ascontiguousarray(column)
        digest.update(name.encode())
        digest.update(column.dtype.str.encode())
        digest.update(repr(column.shape).encode())
        digest.update(column.tobytes())
    return digest.hexdigest()


def join(
    r: Columns, r_key: str, s: Columns, s_key: str, out_key: str = "key"
) -> Dict[str, np.ndarray]:
    """Inner equi-join of a unique-key build side R with a probe side S.

    Output: the join key, then R's other columns, then S's other columns.
    """
    r_keys = np.asarray(r[r_key])
    s_keys = np.asarray(s[s_key])
    order = np.argsort(r_keys, kind="stable")
    sorted_keys = r_keys[order]
    if sorted_keys.size > 1 and np.any(sorted_keys[1:] == sorted_keys[:-1]):
        raise ValueError("reference join expects unique build keys")
    pos = np.searchsorted(sorted_keys, s_keys)
    pos = np.minimum(pos, max(sorted_keys.size - 1, 0))
    hit = sorted_keys[pos] == s_keys if sorted_keys.size else np.zeros(
        s_keys.size, dtype=bool
    )
    s_rows = np.flatnonzero(hit)
    r_rows = order[pos[s_rows]]
    out = {out_key: s_keys[s_rows]}
    for name, column in r.items():
        if name != r_key:
            out[name] = np.asarray(column)[r_rows]
    for name, column in s.items():
        if name != s_key:
            out[name] = np.asarray(column)[s_rows]
    return out


def group_by(
    keys: np.ndarray,
    values: Columns,
    aggregates: Sequence[Tuple[str, str]],
    out_key: str = "group_key",
) -> Dict[str, np.ndarray]:
    """Grouped aggregation with exact integer folds.

    ``aggregates`` is a sequence of ``(column, op)`` with op in
    sum/count/min/max/mean; output columns are named ``<op>_<column>``.
    Sums fold in int64 (floats in float64, sequentially per group);
    means divide the exact sum by the count.
    """
    keys = np.asarray(keys)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    if sorted_keys.size:
        starts = np.flatnonzero(
            np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))
        )
    else:
        starts = np.zeros(0, dtype=np.int64)
    counts = np.diff(np.append(starts, sorted_keys.size))
    out = {out_key: sorted_keys[starts]}
    for column, op in aggregates:
        name = f"{op}_{column}"
        if op == "count":
            out[name] = counts.astype(np.int64)
            continue
        vals = np.asarray(values[column])[order]
        wide = vals.astype(np.float64 if vals.dtype.kind == "f" else np.int64)
        if op in ("sum", "mean"):
            sums = np.add.reduceat(wide, starts) if starts.size else wide[:0]
            out[name] = sums if op == "sum" else sums / counts
        elif op == "min":
            out[name] = np.minimum.reduceat(wide, starts) if starts.size else wide[:0]
        elif op == "max":
            out[name] = np.maximum.reduceat(wide, starts) if starts.size else wide[:0]
        else:
            raise ValueError(f"unsupported aggregate {op!r}")
    return out

