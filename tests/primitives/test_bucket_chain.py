"""Bucket-chain partitioner: grouping, non-determinism, fragmentation, skew."""

import numpy as np
import pytest

from repro.gpusim import A100, GPUContext
from repro.primitives.bucket_chain import (
    bucket_chain_partition,
    contention_factor,
)
from repro.primitives.radix_partition import partition_codes


def _partition(keys, payloads=(), bits=4, seed=0, bucket_tuples=16):
    ctx = GPUContext(device=A100, seed=seed)
    return bucket_chain_partition(
        ctx, keys, list(payloads), total_bits=bits, bucket_tuples=bucket_tuples
    )


class TestGrouping:
    def test_groups_by_partition(self):
        rng = np.random.default_rng(0)
        keys = rng.integers(0, 1 << 10, 2000).astype(np.int32)
        part = _partition(keys, bits=6)
        codes = partition_codes(part.keys, 6)
        assert np.array_equal(codes, np.sort(codes))

    def test_payloads_stay_with_keys(self):
        rng = np.random.default_rng(1)
        keys = rng.integers(0, 256, 1000).astype(np.int32)
        payload = keys * 3
        part = _partition(keys, [payload], bits=4)
        assert np.array_equal(part.payloads[0], part.keys * 3)

    def test_counts_sum(self):
        keys = np.arange(500, dtype=np.int32)
        part = _partition(keys, bits=5)
        assert part.counts.sum() == 500
        assert part.num_partitions == 32


class TestNonDeterminism:
    """Section 4.3: atomics make intra-partition order run dependent."""

    def test_different_seeds_differ_within_partitions(self):
        rng = np.random.default_rng(2)
        keys = rng.integers(0, 16, 4000).astype(np.int32)
        ids = np.arange(4000, dtype=np.int32)
        a = _partition(keys, [ids], bits=2, seed=1)
        b = _partition(keys, [ids], bits=2, seed=2)
        # Same multiset per partition, different order.
        assert np.array_equal(np.sort(a.payloads[0]), np.sort(b.payloads[0]))
        assert not np.array_equal(a.payloads[0], b.payloads[0])

    def test_same_seed_reproduces(self):
        keys = np.arange(1000, dtype=np.int32)
        a = _partition(keys, bits=3, seed=7)
        b = _partition(keys, bits=3, seed=7)
        assert np.array_equal(a.keys, b.keys)


class _FixedRng:
    """Stands in for ``ctx.rng``: hands out a fixed tie-breaker."""

    def __init__(self, tie_breaker):
        self.tie_breaker = tie_breaker

    def random(self, n):
        assert n == self.tie_breaker.size
        return self.tie_breaker


class TestLayoutOrder:
    """The layout is ``np.lexsort((tie_breaker, codes))`` of the input."""

    @staticmethod
    def _layout(keys, tie_breaker, bits, hashed=False):
        ctx = GPUContext(device=A100)
        ctx.rng = _FixedRng(tie_breaker)
        ids = np.arange(keys.size, dtype=np.int64)
        part = bucket_chain_partition(ctx, keys, [ids], bits, hashed=hashed)
        expected = np.lexsort((tie_breaker, partition_codes(keys, bits, hashed=hashed)))
        return part, ids[expected]

    @pytest.mark.parametrize("hashed", [False, True])
    @pytest.mark.parametrize("bits", [1, 6, 12])
    def test_distinct_tie_breakers(self, bits, hashed):
        rng = np.random.default_rng(bits)
        keys = rng.integers(-(1 << 30), 1 << 30, 5000).astype(np.int32)
        part, expected = self._layout(keys, rng.random(keys.size), bits, hashed)
        assert np.array_equal(part.payloads[0], expected)
        assert np.array_equal(part.keys, keys[expected])

    @pytest.mark.parametrize("levels", [1, 3, 50])
    def test_duplicate_tie_breakers_take_the_stable_fallback(self, levels):
        rng = np.random.default_rng(levels)
        keys = rng.integers(0, 1 << 12, 3000).astype(np.int32)
        tie_breaker = rng.integers(0, levels, keys.size) / levels
        part, expected = self._layout(keys, tie_breaker, 4)
        assert np.array_equal(part.payloads[0], expected)

    def test_empty_and_single(self):
        for n in (0, 1):
            keys = np.arange(n, dtype=np.int32)
            part, expected = self._layout(keys, np.full(n, 0.5), 3)
            assert np.array_equal(part.payloads[0], expected)


class TestFragmentation:
    def test_allocation_covers_data_plus_slack(self):
        keys = np.arange(100, dtype=np.int32)
        part = _partition(keys, bits=4, bucket_tuples=16)
        assert part.allocated_bytes >= part.used_bytes
        assert part.fragmentation_bytes >= 0

    def test_every_partition_gets_initial_bucket(self):
        # 1 tuple, 16 partitions: 16 initial buckets allocated.
        keys = np.zeros(1, dtype=np.int32)
        part = _partition(keys, bits=4, bucket_tuples=16)
        assert part.allocated_bytes == 16 * 16 * 4

    def test_buckets_per_partition(self):
        keys = np.zeros(40, dtype=np.int32)  # all in partition 0
        part = _partition(keys, bits=2, bucket_tuples=16)
        assert part.buckets_per_partition[0] == 3  # ceil(40/16)


class TestSkewContention:
    def test_uniform_factor_near_one(self):
        counts = np.full(64, 100)
        assert contention_factor(counts) == pytest.approx(1.0)

    def test_factor_grows_with_imbalance(self):
        mild = np.array([100] * 63 + [400])
        hot = np.array([10] * 63 + [10000])
        assert contention_factor(mild) < contention_factor(hot)

    def test_empty_counts(self):
        assert contention_factor(np.array([], dtype=np.int64)) == 1.0
        assert contention_factor(np.zeros(4, dtype=np.int64)) == 1.0

    def test_skewed_partitioning_costs_more_time(self):
        rng = np.random.default_rng(3)
        n = 1 << 14
        uniform = rng.integers(0, 1 << 12, n).astype(np.int32)
        skewed = np.zeros(n, dtype=np.int32)  # everything in one partition
        ctx_u = GPUContext(device=A100, seed=0)
        bucket_chain_partition(ctx_u, uniform, [], total_bits=8)
        ctx_s = GPUContext(device=A100, seed=0)
        bucket_chain_partition(ctx_s, skewed, [], total_bits=8)
        assert ctx_s.elapsed_seconds > ctx_u.elapsed_seconds
