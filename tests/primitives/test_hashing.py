"""Hash functions: determinism, ranges, digit extraction."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.primitives.hashing import (
    hash_to_slots,
    mix_hash,
    multiplicative_hash,
    radix_digit,
)


class TestHashes:
    def test_multiplicative_deterministic(self):
        keys = np.arange(100, dtype=np.int64)
        assert np.array_equal(multiplicative_hash(keys), multiplicative_hash(keys))

    def test_mix_hash_spreads_dense_keys(self):
        keys = np.arange(1 << 12, dtype=np.int64)
        low_bits = mix_hash(keys) & np.uint64(0xFF)
        counts = np.bincount(low_bits.astype(np.int64), minlength=256)
        # A good mixer spreads dense keys: no bucket > 3x the mean.
        assert counts.max() < 3 * counts.mean()

    def test_mix_hash_distinct_for_distinct_keys(self):
        keys = np.arange(1 << 14, dtype=np.int64)
        assert np.unique(mix_hash(keys)).size == keys.size


class TestSlots:
    def test_slots_in_range(self):
        keys = np.arange(10000, dtype=np.int64)
        slots = hash_to_slots(keys, 1024)
        assert slots.min() >= 0
        assert slots.max() < 1024

    def test_slots_balanced_for_dense_keys(self):
        keys = np.arange(1 << 14, dtype=np.int64)
        slots = hash_to_slots(keys, 256)
        counts = np.bincount(slots, minlength=256)
        assert counts.max() < 4 * counts.mean()

    @pytest.mark.parametrize("bad", [0, -8, 100, 3])
    def test_non_power_of_two_rejected(self, bad):
        with pytest.raises(ValueError):
            hash_to_slots(np.arange(4), bad)


class TestRadixDigit:
    def test_low_bits(self):
        keys = np.array([0b1011, 0b0100], dtype=np.int64)
        assert list(radix_digit(keys, 0, 2)) == [0b11, 0b00]

    def test_high_bits(self):
        keys = np.array([0b101100, 0b010011], dtype=np.int64)
        assert list(radix_digit(keys, 4, 2)) == [0b10, 0b01]

    def test_zero_bits_rejected(self):
        with pytest.raises(ValueError):
            radix_digit(np.arange(4), 0, 0)

    @settings(max_examples=50, deadline=None)
    @given(
        key=st.integers(0, 2 ** 62),
        start=st.integers(0, 48),
        width=st.integers(1, 8),
    )
    def test_digit_matches_python_bit_arithmetic(self, key, start, width):
        digit = radix_digit(np.array([key], dtype=np.int64), start, width)[0]
        assert digit == (key >> start) & ((1 << width) - 1)


# -- key words: integers bit for bit as before, floats by their bits -------


def frozen_multiplicative_hash(keys):
    """The hash as it was when every key was cast to uint64 by value."""
    k = keys.astype(np.uint64, copy=False)
    with np.errstate(over="ignore"):
        return k * np.uint64(11400714819323198485)


def frozen_mix_hash(keys):
    z = keys.astype(np.uint64)
    with np.errstate(over="ignore"):
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
    return z


INT_DTYPES = [np.int8, np.int16, np.int32, np.int64,
              np.uint8, np.uint16, np.uint32, np.uint64]
FLOAT_DTYPES = [np.float16, np.float32, np.float64]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), dtype=st.sampled_from(INT_DTYPES))
def test_integer_keys_hash_as_before(data, dtype):
    keys = data.draw(hnp.arrays(dtype, st.integers(0, 64)))
    assert np.array_equal(multiplicative_hash(keys), frozen_multiplicative_hash(keys))
    assert np.array_equal(mix_hash(keys), frozen_mix_hash(keys))


def test_mix_hash_leaves_its_input_alone():
    keys = np.arange(8, dtype=np.uint64)
    mix_hash(keys)
    assert np.array_equal(keys, np.arange(8, dtype=np.uint64))


@settings(max_examples=40, deadline=None)
@given(
    dtype=st.sampled_from(FLOAT_DTYPES),
    base=st.integers(-1000, 1000),
    payloads=st.lists(st.integers(1, 2 ** 51 - 1), min_size=1, max_size=8),
)
def test_float_keys_hash_by_their_bits(dtype, base, payloads):
    """Fractions spread, specials raise no cast warning, and keys that
    group as one (-0.0 with 0.0, every NaN) hash as one."""
    fractions = (base + np.arange(1, 64) / 64).astype(dtype)
    fractions = np.unique(fractions)
    # NaNs with every sign and mantissa payload, quiet and signalling,
    # built in the key's own width so no conversion touches them
    bits = 8 * np.dtype(dtype).itemsize
    mantissa = np.finfo(dtype).nmant
    exponent = ((1 << (bits - 1)) - 1) ^ ((1 << mantissa) - 1)
    payloads = [1 + p % ((1 << mantissa) - 1) for p in payloads]
    nan_bits = [exponent | p | sign for p in payloads for sign in (0, 1 << (bits - 1))]
    nans = np.array(nan_bits, dtype=f"u{bits // 8}").view(dtype)
    specials = np.concatenate(
        [np.array([0.0, -0.0, np.inf, -np.inf, np.nan], dtype=dtype), nans]
    )
    assert np.isnan(specials[4:]).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for hash_fn in (mix_hash, multiplicative_hash):
            spread = hash_fn(fractions)
            assert np.unique(spread).size == fractions.size
            words = hash_fn(specials)
            assert words[0] == words[1]  # -0.0 and 0.0
            assert np.unique(words[4:]).size == 1  # every NaN payload
            assert np.unique(words[[0, 2, 3, 4]]).size == 4
