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
:func:`packed_order` the one stable sort: ``np.lexsort`` of up to two
keys as a single SIMD sort of packed 32- or 64-bit words.
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


def detect_unique_keys(keys: np.ndarray) -> bool:
    """True if all key values are distinct.

    Keys spanning at most ``keys.size`` values (a primary-key
    permutation) mark a seen-table, one flag per value, instead of
    sorting: they are distinct iff they mark ``keys.size`` flags.
    """
    if keys.size <= 1:
        return True
    span = dense_span(keys, keys[:0])
    if span is not None:
        seen = np.zeros(span[1] - span[0] + 1, dtype=bool)
        seen[keys - span[0]] = True
        return int(np.count_nonzero(seen)) == keys.size
    return count_distinct(keys) == keys.size


def distinct_sorted(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct values — ``np.unique(keys)`` without the hash pass."""
    if keys.size == 0:
        return keys[:0].copy()
    sorted_keys = np.sort(keys, kind="quicksort")
    return sorted_keys[_boundaries(sorted_keys)]


def stable_key_order(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")``, bit for bit and ``intp``:
    :func:`packed_order` of the keys alone.

    One SIMD sort of packed ``key - min ‖ row id`` words, 32 bits wide
    while the key and row-id bits fit them, needs no tier of its own for
    any key shape.  On numpy 2.4.6 at 2^10 to 2^22 rows it beat numpy's
    stable radix argsort of 1- and 2-byte keys, and inverting a dense
    permutation by histogram and scatter (5.8 vs 13-18 ms and 17 vs
    22 ms at 2^20 rows).
    """
    return packed_order(keys)


def packed_order(
    major: np.ndarray, minor: Optional[np.ndarray] = None
) -> np.ndarray:
    """``np.lexsort((minor, major))`` — or, without *minor*, the stable
    argsort of *major* — by one sort of packed words; ``intp``.

    *major* and *minor* hold integers or non-negative floats.  Each row
    becomes one unsigned word: ``major - min(major)``, then as many top
    bits of ``minor - min(minor)`` as fit, then the row id.  The words
    are ``uint32`` when all of those bits fit 32, else ``uint64``.  They
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
    major_range = _word_range(major)
    minor_range = None if minor is None else _word_range(minor)
    free = -1
    if major_range is not None and (minor is None or minor_range is not None):
        major_bits = major_range[1].bit_length()
        free = 64 - row_bits - major_bits
    if free < 0:
        if minor is None:
            return np.argsort(major, kind="stable")
        return np.lexsort((minor, major))
    minor_bits = 0 if minor_range is None else minor_range[1].bit_length()
    # 32-bit words when the row id, the major and the whole minor fit
    # them (and a row id below 2^31 views as int32).
    narrow = row_bits + major_bits + minor_bits <= 32 and row_bits < 32
    word = np.uint32 if narrow else np.uint64
    words = _order_words(major, major_range[0], word)
    drop = 0
    if minor is not None:
        drop = max(0, minor_bits - free)
        words <<= word(minor_bits - drop)
        low = _order_words(minor, minor_range[0], word)
        if drop:
            low >>= word(drop)
        words |= low
    words <<= word(row_bits)
    words |= np.arange(n, dtype=word)
    words.sort()
    row_mask = word((1 << row_bits) - 1)
    if not drop:
        # The words are spent: mask the row ids out in place.
        words &= row_mask
        if narrow:
            return words.view(np.int32).astype(np.intp)
        return words.view(np.intp)
    order = (words & row_mask).view(np.intp)
    # Rows whose truncated minors tie, in row order within each run.
    words >>= word(row_bits)
    same = words[1:] == words[:-1]
    pairs = np.flatnonzero(same)
    if pairs.size:
        tied = np.union1d(pairs, pairs + 1)
        starts = np.ones(tied.size, dtype=bool)
        starts[1:] = ~same[tied[1:] - 1]
        rows = order[tied]
        order[tied] = rows[np.lexsort((minor[rows], np.cumsum(starts)))]
    return order


def _word_range(values: np.ndarray) -> Optional[Tuple[int, int]]:
    """``(least, span)`` of the order keys of *values*; ``None`` unless
    *values* are integers or non-negative floats.

    An integer is its own key, a float its IEEE bit pattern (monotone
    over non-negative floats); ``-0.0`` takes ``0.0``'s: the two compare
    equal.
    """
    if values.dtype.kind in "iu":
        lo = int(values.min())
        return lo, int(values.max()) - lo
    if values.dtype.kind == "f" and values.dtype.itemsize <= 8:
        least = values.min()
        if not least >= 0:  # a negative or NaN value
            return None
        ends = np.array([least, values.max()]) + values.dtype.type(0)
        ends = ends.view(f"u{values.dtype.itemsize}")
        return int(ends[0]), int(ends[1]) - int(ends[0])
    return None


def _order_words(values: np.ndarray, least: int, word: type) -> np.ndarray:
    """Fresh *word* words ordered as *values*: each order key less
    *least* (:func:`_word_range`; the span fits *word*)."""
    if values.dtype.kind == "f":
        # values + 0 is fresh (and turns -0.0 into 0.0): cast it without
        # a second copy.
        unsigned = (values + values.dtype.type(0)).view(f"u{values.dtype.itemsize}")
        words = unsigned.astype(word, copy=False)
    else:
        words = values.astype(word)
    # Modulo the word width, words minus the least wrap back into the span.
    words -= word(least % (1 << (8 * np.dtype(word).itemsize)))
    return words


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
