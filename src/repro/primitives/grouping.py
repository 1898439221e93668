"""Group identification: a fast, exact ``np.unique`` replacement.

``np.unique(keys, return_inverse=True)`` on high-cardinality integer
keys is dominated by a hash-based distinct pass that runs ~15x slower
than an explicit sort + boundary scan on this workload.  Every group-by
variant and the join planner need exactly that operation, so this module
centralizes it, with outputs *bit-identical* to ``np.unique`` (sorted
group keys, ``intp`` inverse mapping, every NaN key in one last group)
— the oracle tests in ``tests/primitives/test_grouping.py`` pin the
equivalence against ``np.unique`` directly, so every caller (including
``relational/validation.py``'s reference implementations, which use
:func:`group_identify` too) rides these paths.

Integer keys dense by :func:`~repro.primitives.direct_address.dense_span`
(applied to the key array itself: at most ``2n`` values spanned) are
grouped by direct addressing: a seen-table over ``key - min``, its
running count as the group rank, and one gather.  Other keys take the
sort + boundary scan.  :func:`bucket_rows` is the one stable split of
rows by a small bucket code (shuffles and out-of-core staging), and
:func:`packed_order` the one wide stable sort: ``np.lexsort`` of up to
two keys as a single SIMD sort of packed 64-bit words.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .direct_address import dense_span


def group_identify(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Sorted distinct keys plus the inverse mapping.

    Equal to ``np.unique(keys, return_inverse=True)``: ``group_keys``
    is sorted ascending, has the dtype of *keys*, and
    ``group_keys[inverse] == keys`` (NaN keys form one last group).
    The group of float zeros is keyed ``-0.0`` when any of its rows is
    ``-0.0``, the least of the two under IEEE total order: the zeros
    compare equal, so a sort leaves either first depending on the rows
    around them, and a fixed rule names the group alike in every subset
    of its rows (shards, out-of-core blocks).
    Dense integer keys are grouped by direct addressing; otherwise a
    non-stable argsort is safe because the inverse depends only on key
    *values*, never on the order of equal elements.
    """
    n = int(keys.size)
    if n == 0:
        return keys[:0].copy(), np.empty(0, dtype=np.intp)
    span = dense_span(keys, keys)
    if span is not None:
        # hi - lo fits the dtype (dense_span), so every offset and every
        # group key below does too.
        lo, hi = span
        offsets = keys.astype(np.intp)
        if lo:
            offsets -= lo
        seen = np.zeros(hi - lo + 1, dtype=bool)
        seen[offsets] = True
        rank = np.cumsum(seen, dtype=np.intp)
        rank -= 1
        group_keys = np.flatnonzero(seen).astype(keys.dtype)
        group_keys += keys.dtype.type(lo)
        return group_keys, np.take(rank, offsets)
    order = np.argsort(keys, kind="quicksort")
    sorted_keys = keys[order]
    boundaries = _boundaries(sorted_keys)
    group_ids = np.cumsum(boundaries)
    group_ids -= 1
    inverse = np.empty(n, dtype=np.intp)
    inverse[order] = group_ids
    group_keys = sorted_keys[boundaries]
    if keys.dtype.kind == "f":
        lo = int(np.searchsorted(sorted_keys, 0, side="left"))
        hi = int(np.searchsorted(sorted_keys, 0, side="right"))
        if np.signbit(sorted_keys[lo:hi]).any():
            group_keys[np.searchsorted(group_keys, 0)] = -0.0
    return group_keys, inverse


def groups_from_sorted(sorted_keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Like :func:`group_identify` but for *already sorted* keys.

    Skips the argsort entirely: the inverse is just the running count of
    group boundaries.  Equivalent to
    ``np.unique(sorted_keys, return_inverse=True)`` when the input is
    sorted ascending.
    """
    n = int(sorted_keys.size)
    if n == 0:
        return sorted_keys[:0].copy(), np.empty(0, dtype=np.intp)
    boundaries = _boundaries(sorted_keys)
    inverse = np.cumsum(boundaries).astype(np.intp, copy=False)
    inverse -= 1
    return sorted_keys[boundaries], inverse


def count_distinct(keys: np.ndarray) -> int:
    """Number of distinct values, via sort + boundary count.

    Equivalent to ``np.unique(keys).size`` (NaNs count once) but avoids
    the hash-based unique pass (~15x faster on high-cardinality ints)
    and materializes no distinct-key array.
    """
    n = int(keys.size)
    if n == 0:
        return 0
    return int(np.count_nonzero(_boundaries(np.sort(keys, kind="quicksort"))))


def distinct_sorted(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct values — ``np.unique(keys)`` without the hash pass."""
    if keys.size == 0:
        return keys[:0].copy()
    sorted_keys = np.sort(keys, kind="quicksort")
    return sorted_keys[_boundaries(sorted_keys)]


def stable_key_order(keys: np.ndarray) -> np.ndarray:
    """A stable sort permutation of *keys*, fast for narrow integer keys.

    A comparison argsort of 4-byte ints costs seconds per 2^24 elements
    on one core; numpy's *stable* argsort of <= 2-byte unsigned ints is
    an O(n) LSD radix sort and roughly 5x faster.  Tiered strategy:

    1. keys of <= 2 bytes — numpy's stable argsort is already radix;
    2. value range fits 16 bits after shifting by the minimum — one
       radix argsort of the shifted keys (stability and order are
       preserved under the monotonic shift);
    3. keys are a dense permutation of ``[min, min + n)`` (verified by
       histogram) — the stable order is the inverse permutation, one
       O(n) scatter;
    4. anything else — :func:`packed_order`: one SIMD sort of packed
       ``key - min ‖ row id`` words wherever the span's bits plus the
       row-id bits fit 64, else numpy's stable argsort.

    Every tier returns the *bit-identical* permutation
    ``np.argsort(keys, kind="stable")`` would.  The shifted values in
    tiers 2-3 fit the key dtype (span <= 2^16 or span == n < 2^31), so
    the subtraction cannot overflow.
    """
    n = int(keys.size)
    if n == 0:
        return np.empty(0, dtype=np.intp)
    if keys.dtype.kind in "iu":
        if keys.dtype.itemsize <= 2:
            return np.argsort(keys, kind="stable")
        lo = int(keys.min())
        span = int(keys.max()) - lo + 1
        if span <= 1 << 16:
            shifted = keys if lo == 0 else keys - lo
            return np.argsort(shifted.astype(np.uint16), kind="stable")
        if span == n:
            shifted = keys if lo == 0 else keys - lo
            counts = np.bincount(shifted, minlength=n)
            if counts.max() == 1:
                # A permutation of [lo, lo + n): invert it.
                order = np.empty(n, dtype=np.intp)
                order[shifted] = np.arange(n, dtype=np.intp)
                return order
    return packed_order(keys)


def packed_order(
    major: np.ndarray, minor: Optional[np.ndarray] = None
) -> np.ndarray:
    """``np.lexsort((minor, major))`` — or, without *minor*, the stable
    argsort of *major* — by one sort of packed 64-bit words.

    *major* and *minor* hold integers or non-negative floats.  Each row
    becomes one uint64 word: ``major - min(major)``, then as many top
    bits of ``minor - min(minor)`` as fit, then the row id.  The words
    are distinct, so numpy's unstable (SIMD) sort of them gives the one
    permutation a stable sort would, and masking out the row ids returns
    it.  If the minor had to be truncated, the rows whose words agree
    above the row id are put back in full-minor order by one lexsort of
    those rows alone.  A major span whose bits plus the row-id bits
    exceed 64, or a negative or NaN value, falls back to numpy's own
    stable sort.
    """
    n = int(major.size)
    if n <= 1:
        return np.arange(n, dtype=np.intp)
    row_bits = (n - 1).bit_length()
    major_words = _order_words(major)
    minor_words = None if minor is None else _order_words(minor)
    free = -1
    if major_words is not None and (minor is None or minor_words is not None):
        free = 64 - row_bits - major_words[1].bit_length()
    if free < 0:
        if minor is None:
            return np.argsort(major, kind="stable")
        return np.lexsort((minor, major))
    words = major_words[0]
    drop = 0
    if minor_words is not None:
        low, minor_bits = minor_words[0], minor_words[1].bit_length()
        drop = max(0, minor_bits - free)
        words <<= np.uint64(minor_bits - drop)
        low >>= np.uint64(drop)
        words |= low
    words <<= np.uint64(row_bits)
    words |= np.arange(n, dtype=np.uint64)
    words.sort()
    row_mask = np.uint64((1 << row_bits) - 1)
    if not drop:
        # The words are spent: mask the row ids out in place.
        words &= row_mask
        return words.view(np.intp)
    order = (words & row_mask).view(np.intp)
    # Rows whose truncated minors tie, in row order within each run.
    words >>= np.uint64(row_bits)
    same = words[1:] == words[:-1]
    pairs = np.flatnonzero(same)
    if pairs.size:
        tied = np.union1d(pairs, pairs + 1)
        starts = np.ones(tied.size, dtype=bool)
        starts[1:] = ~same[tied[1:] - 1]
        rows = order[tied]
        order[tied] = rows[np.lexsort((minor[rows], np.cumsum(starts)))]
    return order


def _order_words(values: np.ndarray) -> Optional[Tuple[np.ndarray, int]]:
    """Fresh uint64 words ordered as *values*, least word 0, and the
    largest word; ``None`` unless *values* are integers or non-negative
    floats.  ``-0.0`` takes ``0.0``'s word: the two compare equal."""
    if values.dtype.kind in "iu":
        lo = int(values.min())
        words = values.astype(np.uint64)
        if lo:
            # Two's-complement words minus lo's wrap back into [0, span].
            words -= np.uint64(lo % (1 << 64))
        return words, int(values.max()) - lo
    if values.dtype.kind == "f" and values.dtype.itemsize <= 8 and values.min() >= 0:
        unsigned = f"u{values.dtype.itemsize}"
        # A fresh array already when the floats are 8 bytes wide.
        words = (values + values.dtype.type(0)).view(unsigned).astype(np.uint64, copy=False)
        words -= words.min()
        return words, int(words.max())
    return None


def bucket_rows(codes: np.ndarray, num_buckets: int) -> List[np.ndarray]:
    """Row indices of each bucket, in row order.

    ``bucket_rows(codes, k)[b]`` equals ``np.flatnonzero(codes == b)``
    for every ``b < k`` (empty where no row has code ``b``); *codes*
    are non-negative integers below *num_buckets*.  One stable sort of
    the codes and one ``bincount`` replace ``k`` full mask scans.
    """
    order = stable_key_order(codes)
    ends = np.cumsum(np.bincount(codes, minlength=num_buckets))
    return np.split(order, ends[:-1])


def _boundaries(sorted_keys: np.ndarray) -> np.ndarray:
    """Boolean mask marking the first element of each run in sorted keys.

    NaNs sort last and compare unequal to themselves; as in
    ``np.unique``, the first NaN starts one run that holds them all.
    """
    boundaries = np.empty(sorted_keys.size, dtype=bool)
    boundaries[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=boundaries[1:])
    if sorted_keys.dtype.kind in "cfmM" and np.isnan(sorted_keys[-1]):
        first_nan = int(np.searchsorted(sorted_keys, sorted_keys[-1], side="left"))
        boundaries[first_nan] = True
        boundaries[first_nan + 1:] = False
    return boundaries
