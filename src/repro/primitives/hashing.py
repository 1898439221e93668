"""Integer hash functions used by the hash-join and group-by kernels.

The GPU implementations in the paper hash keys to pick partitions and
hash-table slots.  We provide the same family of cheap multiplicative
hashes (Knuth/Fibonacci hashing and a finalizer-style mixer), vectorized
over numpy arrays and stable across runs.
"""

from __future__ import annotations

import numpy as np

#: Knuth's multiplicative constant (2^32 / phi), used by many GPU joins.
KNUTH_MULT_32 = np.uint32(2654435761)
#: 64-bit Fibonacci multiplier.
FIB_MULT_64 = np.uint64(11400714819323198485)


def _key_words(keys: np.ndarray, copy: bool = False) -> np.ndarray:
    """The uint64 word each key hashes by.

    Integer (and bool) keys keep their two's-complement word
    (``astype(np.uint64)``).  Float keys hash by their IEEE bit pattern,
    widened to 64 bits, after -0.0 becomes 0.0 and every NaN the one
    canonical NaN — so keys that compare equal, and all NaNs (which
    group as one key), share a word, and fractional keys spread instead
    of truncating onto their integer part.  ``copy=True`` guarantees a
    fresh, writable array.
    """
    keys = np.asarray(keys)
    if keys.dtype.kind != "f":
        return keys.astype(np.uint64, copy=copy)
    with np.errstate(invalid="ignore"):  # a signalling NaN is replaced anyway
        canonical = np.where(
            np.isnan(keys), keys.dtype.type(np.nan), keys + keys.dtype.type(0)
        )
    return canonical.view(f"u{keys.dtype.itemsize}").astype(np.uint64, copy=False)


def multiplicative_hash(keys: np.ndarray) -> np.ndarray:
    """Fibonacci/Knuth multiplicative hash, returned as uint64.

    Cheap (one multiply) and adequate for power-of-two table sizes when
    the high bits are used; matches the style of hash used by
    shared-memory hash tables in GPU joins.
    """
    k = _key_words(keys, copy=True)  # multiplied in place below
    with np.errstate(over="ignore"):
        k *= FIB_MULT_64
    return k


def mix_hash(keys: np.ndarray) -> np.ndarray:
    """A stronger 64-bit finalizer-style mixer (splitmix64 finalizer).

    Used where key bits are correlated with partition bits (e.g. dense
    primary keys) and a plain multiplicative hash would skew buckets.
    """
    z = _key_words(keys, copy=True)  # mixed in place below
    with np.errstate(over="ignore"):
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
    return z


def hash_to_slots(keys: np.ndarray, capacity: int) -> np.ndarray:
    """Map keys to slots of a power-of-two sized hash table.

    Uses the high bits of the multiplicative hash, which distributes
    dense keys far better than the low bits.
    """
    if capacity <= 0 or capacity & (capacity - 1):
        raise ValueError(f"capacity must be a positive power of two, got {capacity}")
    bits = int(capacity).bit_length() - 1
    h = multiplicative_hash(keys)
    h >>= np.uint64(64 - bits)
    return h.view(np.int64)


def radix_digit(keys: np.ndarray, start_bit: int, num_bits: int) -> np.ndarray:
    """Extract the radix digit ``keys[start_bit : start_bit + num_bits]``.

    Operates on the two's-complement bit pattern (keys are cast to
    unsigned), matching the RADIX-PARTITION primitive of the paper.
    """
    return _digit(keys.astype(np.uint64), start_bit, num_bits)


def hashed_digit(keys: np.ndarray, start_bit: int, num_bits: int) -> np.ndarray:
    """``radix_digit(mix_hash(keys), start_bit, num_bits)``."""
    return _digit(mix_hash(keys), start_bit, num_bits)


def _digit(words: np.ndarray, start_bit: int, num_bits: int) -> np.ndarray:
    """The digit of fresh uint64 *words*, taken in place; as int64."""
    if num_bits <= 0:
        raise ValueError("num_bits must be positive")
    if start_bit:
        words >>= np.uint64(start_bit)
    words &= np.uint64((1 << num_bits) - 1)
    return words.view(np.int64)
