"""Direct-address match bounds for dense integer keys.

The paper's joins pair a primary-key side whose keys are a permutation
of ``[0, |R|)`` with a foreign-key side drawn over the same domain, so
the build keys span exactly as many values as there are build rows.  On
such a narrow, dense domain a table indexed by ``key - min`` answers
every probe with one gather: O(n) in place of a stable sort of both
sides plus an O(n log n) binary search.  (Hash-vs-sort group-by studies
draw the same line: a dense, narrow key domain favours direct
addressing over sorting.)

**The rule** (:func:`dense_span`, the one place it lives): both sides
hold integers of the same dtype (one that casts safely to ``intp``) and
the build keys span at most ``build rows + probe rows`` values.  Every
table is then no larger than the sort path's own temporaries, the two
``intp`` sort orders of the two sides, and holds int32 entries whenever
the build row count allows.  Wider spans and other dtypes keep the sort
path, which every caller retains.

Everything here is host index arithmetic with no simulated cost, and
every result equals the sort path's exactly: :func:`dense_bounds` is
``np.searchsorted`` against the sorted build keys, :func:`dense_first_matches`
is the unique-key match of ``joins.matching.match_positions``.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from .gather import host_take


def dense_span(
    build_keys: np.ndarray, probe_keys: np.ndarray
) -> Optional[Tuple[int, int]]:
    """``(min, max)`` of *build_keys* when direct addressing applies.

    ``None`` for empty or non-integer build keys, mismatched dtypes,
    spans wider than ``build_keys.size + probe_keys.size``, and offsets
    ``key - min`` the dtype cannot hold (a full-range int8 column).
    """
    dtype = build_keys.dtype
    if (
        build_keys.size == 0
        or probe_keys.dtype != dtype
        or dtype.kind not in "iu"
        or not np.can_cast(dtype, np.intp)
    ):
        return None
    lo = int(build_keys.min())
    hi = int(build_keys.max())
    if (
        hi - lo + 1 > build_keys.size + probe_keys.size
        or hi - lo > np.iinfo(dtype).max
    ):
        return None
    return lo, hi


def _index_dtype(rows: int) -> type:
    """int32 while every position fits, else int64: the rule of
    :func:`~repro.relational.types.id_dtype`, which this module (imported
    by ``relational``'s own imports) cannot import."""
    return np.int32 if rows < 2**31 else np.int64


def _probe_offsets(
    probe_keys: np.ndarray, lo: int, hi: int
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Offsets of the probe keys from *lo*, plus the mask of keys outside
    ``[lo, hi]`` (``None`` when every key is inside).

    Outside keys are clipped to ``[lo, hi]`` *before* the subtraction,
    so a key near the dtype's extremes (an int64 near +-2^63) cannot
    wrap into the table and fake a match; callers overwrite their
    entries from the mask.
    """
    if probe_keys.size == 0 or (probe_keys.min() >= lo and probe_keys.max() <= hi):
        return probe_keys - lo, None
    outside = (probe_keys < lo) | (probe_keys > hi)
    return np.clip(probe_keys, lo, hi) - lo, outside


def dense_bounds(
    build_keys: np.ndarray,
    probe_keys: np.ndarray,
    span: Tuple[int, int],
    sides: Sequence[str],
) -> Tuple[np.ndarray, ...]:
    """``np.searchsorted(sort(build_keys), probe_keys, side)`` per side.

    *build_keys* need not be sorted and *span* is its
    :func:`dense_span`.  One ``bincount``/prefix-sum table gives every
    bound: ``starts[k - min]`` build keys are smaller than ``k``.
    Returns one array per entry of *sides* (``"left"`` or ``"right"``),
    at the build rows' :func:`_index_dtype`.
    """
    lo, hi = span
    rows = build_keys.size
    starts = np.empty(hi - lo + 2, dtype=_index_dtype(rows))
    starts[0] = 0
    np.cumsum(np.bincount(build_keys - lo, minlength=hi - lo + 1), out=starts[1:])
    offsets, outside = _probe_offsets(probe_keys, lo, hi)
    bounds = []
    for side in sides:
        bound = host_take(starts if side == "left" else starts[1:], offsets)
        if outside is not None:
            # A key below min finds no build key smaller (or equal), a
            # key above max finds all of them.
            bound[outside] = np.where(probe_keys[outside] > hi, rows, 0)
        bounds.append(bound)
    return tuple(bounds)


def dense_first_matches(
    build_keys: np.ndarray, probe_keys: np.ndarray, span: Tuple[int, int]
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Unique-key matches as ``(build position, probe position)``, s-major.

    One slot table maps ``k - min`` to the position of build key ``k``
    (-1 where absent); each probe is one gather.  Both arrays are
    ``intp``.  ``None`` when a build key repeats: the slot table cannot
    tell which duplicate comes first, so the caller takes the sort path.
    """
    lo, hi = span
    rows = build_keys.size
    dtype = _index_dtype(rows)
    slots = np.full(hi - lo + 1, -1, dtype=dtype)
    np.put(slots, build_keys - lo, np.arange(rows, dtype=dtype))
    if np.count_nonzero(slots >= 0) != rows:
        return None
    offsets, outside = _probe_offsets(probe_keys, lo, hi)
    build_at = host_take(slots, offsets)
    slots = None  # spent: free the table before the positions are built
    if outside is not None:
        build_at[outside] = -1
    s_pos = np.flatnonzero(build_at >= 0)
    return host_take(build_at, s_pos).astype(np.intp), s_pos
