"""``packed_order``: one sort of packed words equals numpy's stable sorts.

``packed_order(major)`` must be ``np.argsort(major, kind="stable")`` and
``packed_order(major, minor)`` must be ``np.lexsort((minor, major))``,
bit for bit, for every integer dtype at its extremes (uint64 above
2^63 included), at the 64-bit word budget and one bit past it (where it
falls back to numpy), for 0, 1 and 2 rows, and for minors that must be
truncated: heavily duplicated float tie-breakers and ``-0.0``, which
both lexsort and the packed words treat as ``0.0``.  The bucket-chain
layout, its main caller, is checked end to end with fixed tie-breakers.
"""

import numpy as np
import pytest

from repro.gpusim import A100, GPUContext
from repro.primitives.bucket_chain import bucket_chain_partition
from repro.primitives.grouping import packed_order, stable_key_order
from repro.primitives.radix_partition import partition_codes
from tests.primitives.test_bucket_chain import _FixedRng

_RNG = np.random.default_rng(23)

_INT_DTYPES = [
    np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint32, np.int64, np.uint64,
]


def _extremes(dtype, n):
    """*n* values of *dtype* with its min, max and neighbours repeated."""
    info = np.iinfo(dtype)
    values = _RNG.integers(info.min, info.max, n, endpoint=True, dtype=dtype)
    edges = np.array(
        [info.min, info.max, info.min + 1, info.max - 1, 0], dtype=dtype
    )
    values[: n // 2] = _RNG.choice(edges, n // 2)
    return values


def _assert_argsort(major):
    assert np.array_equal(packed_order(major), np.argsort(major, kind="stable"))


def _assert_lexsort(major, minor):
    assert np.array_equal(packed_order(major, minor), np.lexsort((minor, major)))


@pytest.mark.parametrize("dtype", _INT_DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("n", [0, 1, 2, 3, 600])
def test_integer_extremes(dtype, n):
    major = _extremes(dtype, n)
    _assert_argsort(major)
    assert np.array_equal(stable_key_order(major), np.argsort(major, kind="stable"))
    for minor_dtype in _INT_DTYPES:
        _assert_lexsort(major, _extremes(minor_dtype, n))
    _assert_lexsort(major % 5, major)  # narrow major, wide minor


def test_uint64_above_2_63():
    top = np.uint64(1 << 63)
    major = (top + _RNG.integers(0, 1000, 500).astype(np.uint64))
    major[::7] = np.iinfo(np.uint64).max
    major[::11] = 3  # span of all 64 bits: falls back
    _assert_argsort(major)
    _assert_argsort(major[major >= top])  # narrow span near the top
    _assert_lexsort(major[major >= top], major[major >= top][::-1].copy())


@pytest.mark.parametrize("n", [0, 1, 2])
def test_tiny_inputs(n):
    major = np.arange(n, dtype=np.int64)[::-1].copy()
    minor = np.full(n, 0.5)
    _assert_argsort(major)
    _assert_lexsort(major, minor)
    assert packed_order(major).dtype == np.intp


class _ArgsortSpy:
    """Counts ``np.argsort`` calls, the fallback of a major-only order."""

    def __init__(self, monkeypatch):
        self.calls = 0
        self._argsort = np.argsort
        monkeypatch.setattr(np, "argsort", self)

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self._argsort(*args, **kwargs)


@pytest.mark.parametrize("rows", [2, 3, 5, 1000])
def test_word_budget_boundary(rows, monkeypatch):
    """Span bits + row-id bits == 64 packs; one more bit falls back."""
    row_bits = (rows - 1).bit_length()
    for extra, falls_back in [(0, False), (1, True)]:
        span_bits = 64 - row_bits + extra
        major = _RNG.integers(0, 1 << 20, rows).astype(np.uint64)
        major[0] = np.uint64((1 << span_bits) - 1)
        major[1] = 0
        if rows > 2:
            major[-1] = major[0]  # a tie at the top of the span
        expected = np.argsort(major, kind="stable")
        minor = _RNG.random(rows)
        expected_lex = np.lexsort((minor, major))
        spy = _ArgsortSpy(monkeypatch)
        assert np.array_equal(packed_order(major), expected)
        assert spy.calls == int(falls_back)
        monkeypatch.undo()
        # The minor gets no bits at the budget: every row of one major ties.
        assert np.array_equal(packed_order(major, minor), expected_lex)


def test_signed_span_at_the_budget():
    """int64 extremes: a span of 2^64 - 1 needs all 64 bits."""
    info = np.iinfo(np.int64)
    major = np.array([info.max, info.min, 0, info.min, info.max], dtype=np.int64)
    _assert_argsort(major)
    _assert_argsort(major[:2])  # one row-id bit + 64 span bits: falls back
    _assert_argsort(np.array([-1, info.min, -1], dtype=np.int64))  # 63 + 2 bits
    _assert_argsort(np.array([-1, info.min], dtype=np.int64))  # 63 + 1: packs


class TestFloatMinors:
    def test_negative_zero_equals_zero(self):
        major = _RNG.integers(0, 3, 300)
        minor = _RNG.choice([0.0, -0.0, 0.25, 1e-300, 5e-324], 300)
        _assert_lexsort(major, minor)

    def test_truncated_ties_are_resorted(self):
        """Values that agree in their top bits but not below them."""
        major = _RNG.integers(0, 1 << 12, 5000)
        minor = 0.5 + _RNG.integers(0, 1 << 20, 5000) * 2.0**-53
        _assert_lexsort(major, minor)

    @pytest.mark.parametrize(
        "minor",
        [
            np.array([0.5, -0.5, 0.25, 0.0, -0.0, 0.5]),
            np.array([0.5, np.nan, 0.25, 0.0, np.nan, 0.5]),
            np.array([np.inf, 0.5, 0.0, np.inf, 0.25, 1.0]),
        ],
        ids=["negative", "nan", "inf"],
    )
    def test_values_outside_the_packed_domain(self, minor):
        major = np.array([1, 0, 1, 1, 0, 0])
        _assert_lexsort(major, minor)
        _assert_argsort(minor)

    def test_float32_minor(self):
        major = _RNG.integers(0, 4, 1000).astype(np.int32)
        minor = np.round(_RNG.random(1000), 2).astype(np.float32)
        _assert_lexsort(major, minor)


class TestBucketChainTieBreakers:
    """The bucket-chain layout stays ``np.lexsort((tie_breaker, codes))``."""

    @staticmethod
    def _check(keys, tie_breaker, bits):
        ctx = GPUContext(device=A100)
        ctx.rng = _FixedRng(tie_breaker)
        ids = np.arange(keys.size, dtype=np.int64)
        expected = np.lexsort((tie_breaker, partition_codes(keys, bits)))
        part = bucket_chain_partition(ctx, keys, [ids], bits)
        assert np.array_equal(part.payloads[0], ids[expected])

    def test_heavily_duplicated_tie_breakers_sort_once(self, monkeypatch):
        """2^20 tie-breakers rounded to 4 decimals: ~10^4 distinct values,
        so nearly every row ties; the tied rows take one vectorised
        lexsort, not one sort per tie run."""
        rng = np.random.default_rng(4)
        n = 1 << 20
        keys = rng.integers(0, 1 << 30, n).astype(np.int32)
        tie_breaker = np.round(rng.random(n), 4)
        expected = np.lexsort((tie_breaker, partition_codes(keys, 10)))
        calls = []
        lexsort = np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda k: calls.append(1) or lexsort(k))
        ctx = GPUContext(device=A100)
        ctx.rng = _FixedRng(tie_breaker)
        ids = np.arange(n, dtype=np.int64)
        part = bucket_chain_partition(ctx, keys, [ids], 10)
        assert np.array_equal(part.payloads[0], ids[expected])
        assert len(calls) == 1

    def test_negative_zero_tie_breaker(self):
        keys = np.arange(64, dtype=np.int32) % 4
        tie_breaker = np.where(np.arange(64) % 3 == 0, -0.0, 0.0)
        tie_breaker[::5] = 0.5
        self._check(keys, tie_breaker, 2)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_tiny(self, n):
        self._check(np.arange(n, dtype=np.int32), np.full(n, 0.25), 3)


class TestWordWidth:
    """Words are 32 bits while key and row-id bits fit them, else 64; the
    order is ``intp`` either way, as ``np.argsort`` returns."""

    @staticmethod
    def _word_dtypes(monkeypatch):
        """The dtypes of the row-id ``np.arange`` each packed sort makes."""
        seen = []
        arange = np.arange

        def spy(*args, **kwargs):
            seen.append(np.dtype(kwargs.get("dtype")))
            return arange(*args, **kwargs)

        monkeypatch.setattr(np, "arange", spy)
        return seen

    @pytest.mark.parametrize("rows", [3, 1000, 1 << 14])
    def test_boundary_of_32_bit_words(self, rows, monkeypatch):
        row_bits = (rows - 1).bit_length()
        for extra, word in [(0, np.uint32), (1, np.uint64)]:
            major = _RNG.integers(0, 1 << (32 - row_bits + extra), rows).astype(np.int64)
            major[0] = (1 << (32 - row_bits + extra)) - 1
            major[1] = 0
            seen = self._word_dtypes(monkeypatch)
            got = packed_order(major)
            monkeypatch.undo()
            assert seen == [np.dtype(word)]
            assert got.dtype == np.intp
            assert np.array_equal(got, np.argsort(major, kind="stable"))

    def test_whole_minor_must_fit_32_bits(self, monkeypatch):
        major = _RNG.integers(0, 4, 1000)
        minor = _RNG.integers(0, 1 << 21, 1000)  # 2 + 21 + 10 row bits > 32
        minor[0] = (1 << 21) - 1
        seen = self._word_dtypes(monkeypatch)
        got = packed_order(major, minor)
        monkeypatch.undo()
        assert seen == [np.dtype(np.uint64)]
        assert np.array_equal(got, np.lexsort((minor, major)))

    @pytest.mark.parametrize(
        "dtype", [np.int8, np.uint8, np.int16, np.uint16, np.int32, np.int64],
        ids=lambda d: np.dtype(d).name,
    )
    @pytest.mark.parametrize("log_rows", [10, 14, 16])
    def test_short_keys_take_the_packed_sort(self, dtype, log_rows):
        """Keys of <= 2 bytes or a 16-bit span have no tier of their own."""
        n = 1 << log_rows
        info = np.iinfo(dtype)
        span = min(1 << 16, int(info.max) - int(info.min))
        lo = int(info.max) - span
        keys = _RNG.integers(lo, info.max, n, endpoint=True).astype(dtype)
        got = stable_key_order(keys)
        assert got.dtype == np.intp
        assert np.array_equal(got, np.argsort(keys, kind="stable"))

    @pytest.mark.parametrize(
        "keys",
        [
            np.empty(0, dtype=np.int32),
            np.array([3], dtype=np.int32),
            _RNG.permutation(5000).astype(np.int32) - 77,  # dense permutation
            (_RNG.permutation(256) - 128).astype(np.int8),  # key - min wraps int8
            _RNG.integers(0, 9, 5000).astype(np.int8),  # 32-bit words
            _RNG.integers(0, 1 << 40, 5000),  # 64-bit words
            _RNG.integers(-(1 << 62), 1 << 62, 5000),  # numpy's stable sort
            np.round(_RNG.random(5000), 3),  # float keys
        ],
        ids=["empty", "single", "permutation", "int8-permutation", "u32", "u64",
             "fallback", "float"],
    )
    def test_every_path_returns_intp(self, keys):
        got = stable_key_order(keys)
        assert got.dtype == np.intp
        assert np.array_equal(got, np.argsort(keys, kind="stable"))
