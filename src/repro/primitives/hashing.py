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


def multiplicative_hash(keys: np.ndarray) -> np.ndarray:
    """Fibonacci/Knuth multiplicative hash, returned as uint64.

    Cheap (one multiply) and adequate for power-of-two table sizes when
    the high bits are used; matches the style of hash used by
    shared-memory hash tables in GPU joins.
    """
    k = keys.astype(np.uint64, copy=False)
    with np.errstate(over="ignore"):
        return k * FIB_MULT_64


def mix_hash(keys: np.ndarray) -> np.ndarray:
    """A stronger 64-bit finalizer-style mixer (splitmix64 finalizer).

    Used where key bits are correlated with partition bits (e.g. dense
    primary keys) and a plain multiplicative hash would skew buckets.
    """
    z = keys.astype(np.uint64)  # always a copy: mixed in place below
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
    return (h >> np.uint64(64 - bits)).astype(np.int64)


def radix_digit(keys: np.ndarray, start_bit: int, num_bits: int) -> np.ndarray:
    """Extract the radix digit ``keys[start_bit : start_bit + num_bits]``.

    Operates on the two's-complement bit pattern (keys are cast to
    unsigned), matching the RADIX-PARTITION primitive of the paper.
    """
    if num_bits <= 0:
        raise ValueError("num_bits must be positive")
    mask = np.uint64((1 << num_bits) - 1)
    u = keys.astype(np.uint64, copy=False)
    return ((u >> np.uint64(start_bit)) & mask).astype(np.int64)
