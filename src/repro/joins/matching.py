"""Match-index computation shared by the join algorithms.

These helpers compute *which* tuples match — pure index arithmetic with
no simulated cost.  Each algorithm charges its own match-finding traffic
(merge passes, hash-table builds/probes) around these calls; see the
algorithm modules for the accounting.

All helpers produce matches in probe-major (s-major) order: ascending s
position, which is the streaming order both the merge join and the
partitioned hash join naturally emit (Section 4.1 — the property that
keeps GFTR's output identifiers clustered).

Dense integer keys (the paper's primary-key permutation of ``[0, |R|)``
against foreign keys over the same domain) are matched by direct
addressing: when :func:`~repro.primitives.direct_address.dense_span`
admits the build keys, one slot table (unique build keys) or one
prefix-count table gives every probe's match range in the build's stable
key order, in O(n) and without sorting the probe side.  Other keys take
the sort path.  Both return the same pairs, dtypes and order.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..primitives.direct_address import dense_bounds, dense_first_matches, dense_span
from ..primitives.gather import host_take
from ..primitives.grouping import stable_key_order


def expand_bounds(
    lo: np.ndarray, hi: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Expand per-probe match ranges ``[lo, hi)`` into index pairs.

    Returns ``(r_pos, s_pos)`` where ``r_pos`` are positions in the
    sorted build side and ``s_pos`` positions in the probe side,
    s-major ordered.
    """
    counts = hi - lo
    total = int(counts.sum(dtype=np.int64))
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    if total == np.count_nonzero(counts):
        # Every range holds at most one match (the primary-key case).
        s_pos = np.flatnonzero(counts).astype(np.int64, copy=False)
        return host_take(lo, s_pos).astype(np.int64, copy=False), s_pos
    s_pos = np.repeat(np.arange(lo.size, dtype=np.int64), counts)
    # Match j of range i is lo[i] + j: the range's start, less the
    # matches before it, plus the running match index.
    first = np.cumsum(counts, dtype=np.int64)
    first -= counts
    r_pos = np.repeat(lo - first, counts)
    r_pos += np.arange(total, dtype=np.int64)
    return r_pos, s_pos


def match_positions(
    build_keys: np.ndarray,
    probe_keys: np.ndarray,
    unique_build_keys: bool,
) -> Tuple[np.ndarray, np.ndarray]:
    """Matching (build position, probe position) pairs, s-major.

    ``build_keys`` need not be sorted; positions refer to the arrays as
    given (e.g. a radix-partitioned layout).  Used by the hash joins,
    where co-partitioning guarantees matches share a partition but the
    intra-partition layout is unsorted, and by the tier join.

    Dense keys are matched by direct addressing (module docstring).
    Otherwise the probe keys are searched in sorted order, so
    consecutive binary searches walk the build side monotonically
    instead of at random; the per-probe bounds are then scattered back
    to probe order.  Each search is independent of the others, so the
    pairs are exactly those of searching the probe keys as given.
    """
    if build_keys.size == 0 or probe_keys.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    span = dense_span(build_keys, probe_keys)
    if span is not None:
        if unique_build_keys:
            matches = dense_first_matches(build_keys, probe_keys, span)
            if matches is not None:
                return matches
        else:
            lo, hi = dense_bounds(build_keys, probe_keys, span, ("left", "right"))
            sorted_pos, s_pos = expand_bounds(lo, hi)
            return host_take(stable_key_order(build_keys), sorted_pos), s_pos
    order = stable_key_order(build_keys)
    sorted_keys = host_take(build_keys, order)
    probe_order = stable_key_order(probe_keys)
    probe_sorted = host_take(probe_keys, probe_order)
    lo_sorted = np.searchsorted(sorted_keys, probe_sorted, side="left")
    if unique_build_keys:
        clipped = np.minimum(lo_sorted, sorted_keys.size - 1)
        matched = np.empty(probe_keys.size, dtype=bool)
        matched[probe_order] = host_take(sorted_keys, clipped) == probe_sorted
        build_at = np.empty(probe_keys.size, dtype=order.dtype)
        build_at[probe_order] = host_take(order, clipped)
        s_pos = np.flatnonzero(matched)
        return host_take(build_at, s_pos), s_pos
    hi_sorted = np.searchsorted(sorted_keys, probe_sorted, side="right")
    lo = np.empty_like(lo_sorted)
    lo[probe_order] = lo_sorted
    hi = np.empty_like(hi_sorted)
    hi[probe_order] = hi_sorted
    sorted_pos, s_pos = expand_bounds(lo, hi)
    return host_take(order, sorted_pos), s_pos
