"""RADIX-PARTITION: stability, grouping, multi-pass composition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim import A100, GPUContext
from repro.primitives.radix_partition import (
    charge_radix_partition,
    partition_codes,
    partition_layout,
    plan_passes,
    radix_partition,
)


@pytest.fixture
def ctx():
    return GPUContext(device=A100)


class TestPlanPasses:
    def test_exact_multiple(self):
        assert plan_passes(16) == [(0, 8), (8, 8)]

    def test_remainder(self):
        assert plan_passes(11) == [(0, 8), (8, 3)]

    def test_single(self):
        assert plan_passes(5) == [(0, 5)]

    def test_invalid(self):
        with pytest.raises(ValueError):
            plan_passes(0)


class TestMultiPass:
    def test_full_partition_groups_contiguously(self, ctx):
        rng = np.random.default_rng(1)
        keys = rng.integers(0, 1 << 16, 5000).astype(np.int32)
        part = radix_partition(ctx, keys, [], total_bits=12)
        codes = partition_codes(part.keys, 12)
        assert np.array_equal(codes, np.sort(codes))
        assert part.passes == 2

    def test_counts_and_offsets_consistent(self, ctx):
        rng = np.random.default_rng(2)
        keys = rng.integers(0, 64, 4000).astype(np.int32)
        part = radix_partition(ctx, keys, [], total_bits=6)
        assert part.counts.sum() == keys.size
        assert part.num_partitions == 64
        np.testing.assert_array_equal(
            part.offsets, np.concatenate(([0], np.cumsum(part.counts)[:-1]))
        )
        # Offsets really delimit the partitions.
        codes = partition_codes(part.keys, 6)
        for p in (0, 13, 63):
            lo, count = part.offsets[p], part.counts[p]
            assert np.all(codes[lo : lo + count] == p)

    def test_stability_across_payload_choices(self, ctx):
        """The GFTR prerequisite: same layout for (k, c1) and (k, c2)."""
        rng = np.random.default_rng(3)
        keys = rng.integers(0, 4096, 3000).astype(np.int32)
        c1 = rng.integers(0, 100, 3000).astype(np.int32)
        c2 = rng.integers(0, 100, 3000).astype(np.int32)
        run1 = radix_partition(ctx, keys, [c1], total_bits=10)
        run2 = radix_partition(ctx, keys, [c2], total_bits=10)
        # Reconstruct original row ids via the values: both layouts must
        # place every original row at the same position.
        ids = np.arange(3000, dtype=np.int32)
        ref1 = radix_partition(GPUContext(device=A100), keys, [ids], total_bits=10)
        ref2 = radix_partition(GPUContext(device=A100), keys, [ids], total_bits=10)
        assert np.array_equal(ref1.payloads[0], ref2.payloads[0])
        assert np.array_equal(run1.keys, run2.keys)

    def test_hashed_partitioning_spreads_but_preserves_rows(self, ctx):
        keys = np.arange(4096, dtype=np.int32)
        part = radix_partition(ctx, keys, [], total_bits=6, hashed=True)
        assert np.array_equal(np.sort(part.keys), keys)
        assert part.counts.max() < 3 * part.counts.mean()

    def test_lazy_charge_skips_boundary_kernel(self, ctx):
        keys = np.arange(1024, dtype=np.int32)
        radix_partition(ctx, keys, [], total_bits=4)
        full = [rec.stats for rec in ctx.timeline.records()]
        ctx2 = GPUContext(device=A100)
        charge_radix_partition(ctx2, keys.size, keys.nbytes, 0, 4, boundaries=False)
        assert full[-1].name == "partition_boundaries"
        assert [rec.stats for rec in ctx2.timeline.records()] == full[:-1]

    @pytest.mark.parametrize("hashed", [False, True])
    @pytest.mark.parametrize("bits", [3, 11])
    def test_layout_matches_a_full_call(self, ctx, bits, hashed):
        rng = np.random.default_rng(bits)
        keys = rng.integers(-(1 << 20), 1 << 20, 5000).astype(np.int32)
        column = rng.integers(0, 1 << 40, keys.size).astype(np.int64)
        full = radix_partition(ctx, keys, [column], bits, hashed=hashed)
        layout = partition_layout(keys, bits, hashed)
        for field in ("keys", "counts", "offsets", "order"):
            assert np.array_equal(getattr(layout, field), getattr(full, field))
        assert (layout.total_bits, layout.hashed, layout.passes) == (
            full.total_bits, full.hashed, full.passes,
        )
        assert layout.payloads == []
        assert np.array_equal(column[layout.order], full.payloads[0])

    def test_two_invocations_per_16_bits(self, ctx):
        """The paper's accounting: 15-16 bits -> 2 RADIX-PARTITION calls."""
        keys = np.arange(1 << 12, dtype=np.int32)
        part = radix_partition(ctx, keys, [], total_bits=16)
        assert part.passes == 2


@settings(max_examples=30, deadline=None)
@given(
    keys=st.lists(st.integers(0, 2 ** 20), min_size=1, max_size=400),
    bits=st.integers(1, 12),
)
def test_partition_is_a_permutation(keys, bits):
    ctx = GPUContext(device=A100)
    arr = np.asarray(keys, dtype=np.int64)
    payload = np.arange(arr.size, dtype=np.int64)
    part = radix_partition(ctx, arr, [payload], total_bits=bits)
    assert np.array_equal(np.sort(part.keys), np.sort(arr))
    # payload permutation is consistent with the key permutation
    assert np.array_equal(arr[part.payloads[0]], part.keys)

